package report

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// JSONLWriter appends one JSON record of type T per line to a sink: the
// -converge stream (ConvergenceRecord) and the -sample stream
// (ProfileRecord). It is safe for concurrent use (sweep and bench workers
// finish in arbitrary order) and buffers writes; call Flush before closing
// the underlying file. A nil writer discards, so callers thread it through
// unconditionally.
type JSONLWriter[T any] struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLWriter wraps w in a buffered JSONL writer.
func NewJSONLWriter[T any](w io.Writer) *JSONLWriter[T] {
	return &JSONLWriter[T]{w: bufio.NewWriter(w)}
}

// Write appends one record. The first write error sticks and is returned by
// this and every later call (and by Flush).
func (j *JSONLWriter[T]) Write(rec T) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return err
	}
	data = append(data, '\n')
	if _, err := j.w.Write(data); err != nil {
		j.err = err
	}
	return j.err
}

// Flush drains the buffer to the sink. Nil-safe.
func (j *JSONLWriter[T]) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}
