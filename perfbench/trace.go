package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused it (0 for
// an operation's root). Counters holds deltas of the program's own
// metrics taken around the span.
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Op       int              `json:"op"`
	Name     string           `json:"name"`
	Start    time.Duration    `json:"start_ns"`
	End      time.Duration    `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (s *span) interval() interval { return interval{s.Start, s.End} }

func (s *span) ms() float64 { return float64(s.End-s.Start) / float64(time.Millisecond) }

// recorder keeps spans in memory; write saves them when the run ends so
// that recording costs no I/O while operations are timed. It is used
// from one goroutine.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: time.Since(r.epoch),
	})
	return len(r.spans)
}

// end closes span id and attaches its counter deltas.
func (r *recorder) end(id int, counters map[string]int64) {
	s := &r.spans[id-1]
	s.End = time.Since(r.epoch)
	s.Counters = counters
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []*span {
	var out []*span
	for i := range r.spans {
		if r.spans[i].Parent == id {
			out = append(out, &r.spans[i])
		}
	}
	return out
}

// write saves the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
