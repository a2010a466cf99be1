package main

import (
	"sync"
	"time"
)

// The host this benchmark was built on runs other tenants' work beside it,
// and its speed drifts by a fifth and more over tens of seconds: a grid's
// wall time changes as much between two runs as a regression would. The
// parent therefore times a fixed kernel between children, a kernel that
// belongs to the benchmark and not to the program under test, and reports
// times rescaled to a reference speed. A change to the program moves the
// rescaled times as it moves the raw ones; the raw samples and the kernel's
// times stay in the result file.
//
// The kernel has two halves of about equal time: random read-modify-writes
// over a table larger than the caches, and the same loop over a table that
// fits in them. On the host the bounds were set on, the memory half alone
// swings more than the grid does and the cached half less; their sum tracks
// the grid's drift best.
const (
	calibBigWords   = 1 << 22 // 32 MiB per worker
	calibBigSteps   = 1 << 24
	calibSmallWords = 1 << 15 // 256 KiB per worker
	calibSmallSteps = 80 << 20
)

// refCalibS is the kernel's time at the reference speed, so rescaled times
// read as seconds on a host where the kernel takes this long. It is about
// the kernel's median on the 2-core Intel Xeon host the bounds were set on.
const refCalibS = 0.45

// calibrator runs the kernel on one goroutine per grid worker, so a slowdown
// of either core shows, as it does in the grid's wall time.
type calibrator struct{ big, small [][]uint64 }

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	for i := 0; i < workers; i++ {
		c.big = append(c.big, make([]uint64, calibBigWords))
		c.small = append(c.small, make([]uint64, calibSmallWords))
	}
	c.measure() // faults the tables in
	return c
}

// measure returns the kernel's wall time in seconds.
func (c *calibrator) measure() float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for i := range c.big {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := spin(c.big[i], calibBigSteps, uint64(i)+1)
			spin(c.small[i], calibSmallSteps, x)
		}(i)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// spin adds xorshift values into random words of t, whose length is a power
// of two, and returns the generator's state.
func spin(t []uint64, steps int, x uint64) uint64 {
	mask := uint64(len(t) - 1)
	for n := 0; n < steps; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[x&mask] += x
	}
	return x
}
