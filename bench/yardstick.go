package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is a fixed piece of work that measures how fast the
// machine is right now. Interference in a shared sandbox is one-sided,
// comes in bursts of seconds to minutes, and slows allocation- and
// pointer-heavy Go code by up to a third while leaving a pure ALU loop
// untouched (README.md has the series), so the yardstick is that kind
// of code: build a map of small linked nodes, grow their slices, sort.
// It uses the standard library only and must never change — a change
// rescales every end-to-end timing in the ledger.
//
// An end-to-end run runs it between windows, on every client at once
// while the servers are idle, and scales each window's timings by
// yardstickRef / (yardstick time around the window): figures read as if
// the whole run had happened at reference speed. Two runs a minute apart
// then differ by 3–9 % instead of 12–25 %.
const (
	yardstickRounds = 1200
	// yardstickRef is what the yardstick takes, run on both cores at once,
	// on the sandbox this was written in when that sandbox is calm.
	yardstickRef = 95 * time.Millisecond
)

type yardNode struct {
	next *yardNode
	key  int
	vals []int
}

var yardSink atomic.Int64 // clients run the yardstick side by side

// yardstick does the fixed work once and returns how long it took.
func yardstick() time.Duration {
	start := time.Now()
	x, sum := uint64(7), 0
	for r := 0; r < yardstickRounds; r++ {
		m := make(map[int]*yardNode, 64)
		var head *yardNode
		for i := 0; i < 400; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			k := int(x>>33) % 300
			n := m[k]
			if n == nil {
				n = &yardNode{key: k, next: head}
				head = n
				m[k] = n
			}
			n.vals = append(n.vals, int(x>>40))
		}
		for n := head; n != nil; n = n.next {
			sort.Ints(n.vals)
			sum += len(n.vals) + n.key
		}
	}
	yardSink.Add(int64(sum)) // keeps the work observable
	return time.Since(start)
}

// yardstickPair runs the yardstick on two goroutines at once, as the two
// clients of a loop do, and returns the mean time.
func yardstickPair() time.Duration {
	var wg sync.WaitGroup
	var took [loadClients]time.Duration
	for i := range took {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			took[i] = yardstick()
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range took {
		sum += d
	}
	return sum / loadClients
}

// yardstickSpeed converts a yardstick time into a machine speed: 1 at
// the reference, 0.7 when the same work takes 1/0.7 as long.
func yardstickSpeed(took time.Duration) float64 {
	return float64(yardstickRef) / float64(took)
}
