package workload

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop issues operations first..first+n-1 on a fixed schedule: op i
// is due at start + (i-first)/rate, whether or not earlier ones have
// answered. do receives the due instant, so latency is timed from when
// the request should have gone out and a stall is charged to every
// request it delays. At most conns operations are in flight; past that
// the schedule backs up on the client, which the due-time clock also
// charges. It returns once every operation has finished.
func openLoop(start time.Time, rate float64, first, n, conns int, do func(i int, due time.Time)) {
	type job struct {
		i   int
		due time.Time
	}
	// Unbuffered: the dispatcher hands each op straight to a free
	// connection goroutine and blocks when all are busy.
	jobs := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				do(j.i, j.due)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{first + k, due}
	}
	close(jobs)
	wg.Wait()
}

// closedLoop runs clients goroutines that each start their next
// operation as soon as the previous one answers, until the deadline.
// Operation indices are handed out in order from next. It returns once
// every operation has finished.
func closedLoop(clients int, next *atomic.Int64, deadline time.Time, do func(client, i int)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				do(c, int(next.Add(1)-1))
			}
		}(c)
	}
	wg.Wait()
}
