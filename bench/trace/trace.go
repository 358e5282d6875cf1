// Package trace is satbench's own span recorder. The benchmark measures
// every layer from outside, so a span here brackets one call into a
// layer's public function (or one HTTP round trip), recorded in memory
// and written out when the run ends. Spans the daemon already exports
// for a job are stitched under the client span that caused them, which
// puts client, network and server time on one timeline.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. Times are microsecond offsets from the
// recorder's start. Spans of one operation share Op.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
	// N is the amount of work the span covered (bytes parsed, lemmas
	// checked, records written); rates are N over duration.
	N float64 `json:"n,omitempty"`
	// CPU marks a span that carries a CPU-time total, not a timeline
	// interval (the daemon's per-phase solver attribution): it has a
	// duration but no position, so self-time arithmetic skips it.
	CPU bool `json:"cpu,omitempty"`
	// Remote marks a span recorded by the daemon and stitched in.
	Remote bool `json:"remote,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End-s.Start) * time.Microsecond }

// Recorder collects spans. It is safe for concurrent use. A nil
// *Recorder records nothing, so untraced windows pass nil and pay one
// branch per call.
type Recorder struct {
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// New starts a recorder whose time zero is now.
func New() *Recorder { return &Recorder{start: time.Now()} }

// Add records a finished span and returns its ID (0 on a nil recorder).
func (r *Recorder) Add(parent, op int, name string, start, end time.Time, n float64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.start).Microseconds(), End: end.Sub(r.start).Microseconds(), N: n,
	})
	return id
}

// Remote is one span of a daemon-side trace, with offsets relative to
// that trace's own start.
type Remote struct {
	ID, Parent     int
	Name           string
	StartUS, DurUS int64
	CPU            bool
}

// Stitch adds a daemon trace under the client span parent. base is the
// daemon trace's start instant on the shared wall clock (client and
// daemons run on one host); the remote root's parent becomes parent
// and every other remote span keeps its place in the remote tree.
func (r *Recorder) Stitch(parent, op int, base time.Time, remote []Remote) {
	if r == nil || len(remote) == 0 {
		return
	}
	off := base.Sub(r.start).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	local := make(map[int]int, len(remote))
	for _, s := range remote {
		local[s.ID] = len(r.spans) + 1 + len(local)
	}
	for _, s := range remote {
		p, ok := local[s.Parent]
		if !ok {
			p = parent
		}
		r.spans = append(r.spans, Span{
			ID: local[s.ID], Parent: p, Op: op, Name: s.Name,
			Start: off + s.StartUS, End: off + s.StartUS + s.DurUS,
			CPU: s.CPU, Remote: true,
		})
	}
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part of
// its interval that its timeline children cover (overlapping children
// are counted once; a child reaching outside the parent is clipped).
// CPU spans neither have a self time nor reduce their parent's.
func SelfTimes(spans []Span) map[int]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 && !s.CPU {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.CPU {
			continue
		}
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := int64(0), s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, edge), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End-s.Start-covered) * time.Microsecond
	}
	return out
}

// File is the on-disk form of a trace.
type File struct {
	// StartUnixUS is the recorder's time zero.
	StartUnixUS int64  `json:"start_unix_us"`
	Spans       []Span `json:"spans"`
}

// Write stores the recorded spans as JSON at path.
func (r *Recorder) Write(path string) error {
	f := File{Spans: r.Spans()}
	if r != nil {
		f.StartUnixUS = r.start.UnixMicro()
	}
	buf, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
