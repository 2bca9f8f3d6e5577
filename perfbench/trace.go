package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans of one packet or epoch share
// an id; parent indexes the enclosing span in the tracer (-1 for a root).
type span struct {
	id         uint64
	name       string
	parent     int32
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory (preallocated, so recording a span does not
// allocate while it has room) and writes them out when the run ends.
type tracer struct {
	origin  time.Time
	spans   []span
	dropped int
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 when the buffer is full).
func (t *tracer) begin(id uint64, name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{id: id, name: name, parent: parent, start: time.Since(t.origin)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.origin)
}

// add records a span whose times were taken by the caller.
func (t *tracer) add(id uint64, name string, parent int32, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{id: id, name: name, parent: parent, start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return int32(len(t.spans) - 1)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for i, s := range t.spans {
		fmt.Fprintf(bw, `{"span":%d,"id":%d,"name":%q,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.id, s.name, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
