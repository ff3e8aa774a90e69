package main

import (
	"sync"
	"time"
)

// openLoop sends n jobs on a fixed schedule, job i due at start+i/rate,
// to at most workers concurrent executors, and waits for all of them. A
// job that finds every worker busy queues, and run receives its due time,
// so latency measured from it includes the wait. openLoop returns how late
// the generator itself woke for each job; queued jobs never hold it up.
func openLoop(n int, rate float64, workers int, start time.Time, run func(i int, due time.Time)) []time.Duration {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // one slot per job: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				run(j.i, j.due)
			}
		}()
	}
	lags := make([]time.Duration, 0, n)
	interval := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		if lag < 0 {
			lag = 0
		}
		lags = append(lags, lag)
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return lags
}

// closedLoop runs workers executors that each call run again as soon as
// the previous call returns, until the deadline; it waits for all of them.
func closedLoop(workers int, deadline time.Time, run func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				run(w)
			}
		}(w)
	}
	wg.Wait()
}
