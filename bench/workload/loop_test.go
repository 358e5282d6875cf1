package workload

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The open loop keeps its schedule when the system under test stalls,
// hands every operation its due time (not its send time), and thereby
// makes lateness measurable.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate, n = 200.0, 20 // one op every 5 ms
	start := time.Now()
	var mu sync.Mutex
	due := map[int]time.Time{}
	lag := map[int]time.Duration{}
	// One connection and a first operation that stalls for 30 ms: the
	// next ops are handed out late, and the due-time clock must show it.
	openLoop(start, rate, 100, n, 1, func(i int, d time.Time) {
		mu.Lock()
		due[i], lag[i] = d, time.Since(d)
		mu.Unlock()
		if i == 100 {
			time.Sleep(30 * time.Millisecond)
		}
	})
	if len(due) != n {
		t.Fatalf("%d operations ran, want %d", len(due), n)
	}
	for k := 0; k < n; k++ {
		want := start.Add(time.Duration(k) * 5 * time.Millisecond)
		if !due[100+k].Equal(want) {
			t.Fatalf("op %d due at +%v, want +%v", k, due[100+k].Sub(start), want.Sub(start))
		}
	}
	// Op 1 was due at 5 ms but the only connection was busy until 30 ms.
	if lag[101] < 20*time.Millisecond {
		t.Errorf("op behind the stall reports %v of lag, want about 25ms", lag[101])
	}
	// The backlog drains; the last op leaves close to on time.
	if lag[100+n-1] > 15*time.Millisecond {
		t.Errorf("last op still %v late", lag[100+n-1])
	}
}

func TestOpenLoopWithFreeConnectionsIsOnTime(t *testing.T) {
	var worst atomic.Int64
	openLoop(time.Now(), 500, 0, 25, 4, func(_ int, d time.Time) {
		if l := time.Since(d).Microseconds(); l > worst.Load() {
			worst.Store(l)
		}
		time.Sleep(3 * time.Millisecond) // slower than the 2 ms interval: needs the spare connections
	})
	if worst.Load() > 10_000 {
		t.Errorf("worst schedule lag %d us with idle connections", worst.Load())
	}
}

func TestClosedLoopHandsOutIndicesInOrder(t *testing.T) {
	var next atomic.Int64
	next.Store(5)
	var mu sync.Mutex
	seen := map[int]int{}
	closedLoop(3, &next, time.Now().Add(30*time.Millisecond), func(c, i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
	})
	if len(seen) < 10 {
		t.Fatalf("only %d operations in 30 ms with 3 clients", len(seen))
	}
	for i := 5; i < 5+len(seen); i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d handed out %d times", i, seen[i])
		}
	}
}
