package trace

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // reaches past the parent: clipped
		{ID: 5, Parent: 1, Name: "cpu", Start: 0, End: 500, CPU: true},
		{ID: 6, Parent: 2, Name: "a.inner", Start: 15, End: 25},
	}
	self := SelfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: us(100 - 50 - 10), // children cover [10,60) and [90,100)
		2: us(30 - 10),
		3: us(30),
		4: us(40),
		6: us(10),
	} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
	if _, ok := self[5]; ok {
		t.Error("a CPU-total span has no place on the timeline and no self time")
	}
}

func TestStitchPlacesRemoteSpansOnTheClientTimeline(t *testing.T) {
	r := New()
	start := r.start.Add(5 * time.Millisecond)
	root := r.Add(0, 7, "op", start, start.Add(10*time.Millisecond), 0)
	rt := r.Add(root, 7, "http_roundtrip", start, start.Add(9*time.Millisecond), 0)
	// The daemon's trace began 1 ms after the request left.
	r.Stitch(rt, 7, start.Add(time.Millisecond), []Remote{
		{ID: 1, Name: "job", StartUS: 0, DurUS: 7000},
		{ID: 2, Parent: 1, Name: "parse", StartUS: 0, DurUS: 1000},
		{ID: 3, Parent: 1, Name: "solve", StartUS: 1000, DurUS: 6000},
		{ID: 4, Parent: 3, Name: "solver/propagate", StartUS: 1000, DurUS: 9000, CPU: true},
	})
	spans := r.Spans()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	by := map[string]Span{}
	for _, s := range spans {
		by[s.Name] = s
		if s.Op != 7 {
			t.Errorf("%s: op %d, want 7", s.Name, s.Op)
		}
	}
	if by["job"].Parent != rt || by["parse"].Parent != by["job"].ID || by["solver/propagate"].Parent != by["solve"].ID {
		t.Errorf("remote tree not preserved under the round trip: %+v", spans)
	}
	if got := by["solve"].Start - by["http_roundtrip"].Start; got != 2000 {
		t.Errorf("solve starts %d us into the round trip, want 2000", got)
	}
	if !by["solve"].Remote || by["op"].Remote || !by["solver/propagate"].CPU {
		t.Error("remote and CPU flags lost")
	}
	self := SelfTimes(spans)
	// The round trip's own 2 ms are the network and HTTP layers: 9 ms
	// minus the 7 ms the daemon accounts for.
	if self[rt] != 2*time.Millisecond {
		t.Errorf("round-trip self time %v, want 2ms", self[rt])
	}
	if self[by["solve"].ID] != 6*time.Millisecond {
		t.Errorf("solve self time %v: the CPU child must not be subtracted", self[by["solve"].ID])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	if id := r.Add(0, 1, "x", time.Now(), time.Now(), 0); id != 0 {
		t.Errorf("nil recorder returned id %d", id)
	}
	r.Stitch(1, 1, time.Now(), []Remote{{ID: 1}})
	if r.Spans() != nil {
		t.Error("nil recorder holds spans")
	}
}
