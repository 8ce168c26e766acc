package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Flight recorder: the per-process black box, a retained window over
// the span buffer it is built with. It records nothing of its own —
// spans are the one event stream — and exists to be *dumped*: on
// SIGQUIT, on a daemon panic, or when a decision-log conservation
// invariant trips, the recorder writes a self-contained JSON
// post-mortem (the span ring's snapshot plus the pinned exemplars) to
// disk.

// FlightDump is the JSON document a dump writes. Detail carries what
// the span stream cannot: the caller's account of why it dumped (the
// violating transaction and excess, a panic value).
type FlightDump struct {
	Process   string          `json:"process"`
	Reason    string          `json:"reason"`
	Detail    string          `json:"detail,omitempty"`
	Wall      string          `json:"wall"`
	Spans     []Span          `json:"spans"`
	Exemplars []TraceExemplar `json:"exemplars,omitempty"`
}

// FlightRecorder dumps a process's span buffer. A nil recorder no-ops
// everywhere, so call sites never guard.
type FlightRecorder struct {
	spans   *SpanBuffer
	process string
	dir     string

	mu       sync.Mutex // serialises dumps and guards the fields below
	lastPath string
	dumps    int
	once     map[string]bool // reasons already dumped via DumpOnce
}

// NewFlightRecorder builds the black box over spans for process (a
// short role label: "coord", "site-a", ...), dumping into dir
// (defaulted to the working directory; created on the first dump). A
// nil span buffer — the span plane off — returns a nil recorder.
func NewFlightRecorder(spans *SpanBuffer, process, dir string) *FlightRecorder {
	if spans == nil {
		return nil
	}
	if dir == "" {
		dir = "."
	}
	return &FlightRecorder{spans: spans, process: process, dir: dir, once: make(map[string]bool)}
}

// Spans returns the span buffer the recorder dumps (nil for nil).
func (f *FlightRecorder) Spans() *SpanBuffer {
	if f == nil {
		return nil
	}
	return f.spans
}

// LastDump reports the path of the most recent on-disk dump ("" if
// none yet).
func (f *FlightRecorder) LastDump() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastPath
}

// Dumps reports how many dumps have been written.
func (f *FlightRecorder) Dumps() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// DumpTo writes the post-mortem document to w.
func (f *FlightRecorder) DumpTo(w io.Writer, reason, detail string) error {
	if f == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(FlightDump{
		Process:   f.process,
		Reason:    reason,
		Detail:    detail,
		Wall:      time.Now().UTC().Format(time.RFC3339Nano),
		Spans:     f.spans.Snapshot(),
		Exemplars: f.spans.Exemplars(),
	})
}

// Dump writes the post-mortem to a fresh file in the recorder's dump
// directory and returns its path. File naming is
// flight-<process>-<n>.json so successive dumps never clobber.
func (f *FlightRecorder) Dump(reason, detail string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpLocked(reason, detail)
}

// dumpLocked writes one dump file; only a written file counts. Caller
// holds f.mu.
func (f *FlightRecorder) dumpLocked(reason, detail string) (string, error) {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%s-%d.json", f.process, f.dumps+1))
	tmp := path + ".tmp"
	file, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	err = f.DumpTo(file, reason, detail)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	f.dumps++
	f.lastPath = path
	return path, nil
}

// DumpOnce dumps at most once per reason — the hook for invariant
// violations that would otherwise re-trip on every subsequent check.
// A failed dump does not use the reason up. Returns the dump path (""
// when this reason already fired).
func (f *FlightRecorder) DumpOnce(reason, detail string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.once[reason] {
		return "", nil
	}
	path, err := f.dumpLocked(reason, detail)
	if err == nil {
		f.once[reason] = true
	}
	return path, err
}
