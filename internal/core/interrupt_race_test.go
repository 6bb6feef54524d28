package core

import (
	"sync"
	"testing"
	"time"
)

// TestInterruptRaceWithNext hammers Session.Interrupt and
// Session.SetTimeout from other goroutines while the session's own
// goroutine runs long queries — the exact pattern a serving layer uses
// to reap runaway work. Run under -race (the CI core job does), this
// proves the cancellation API's concurrency contract: both calls touch
// only atomics, so they may land at any point of an in-flight Next.
func TestInterruptRaceWithNext(t *testing.T) {
	e := newSession(t, Options{})
	if err := e.Consult(`
		loop(0).
		loop(N) :- N > 0, M is N - 1, loop(M).
	`); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					e.Interrupt()
				} else {
					// Alternate arming and disarming tiny deadlines.
					e.SetTimeout(time.Duration(g) * 50 * time.Microsecond)
				}
			}
		}(g)
	}

	// The session goroutine keeps issuing queries; most die with
	// interrupted/timeout balls, which is the expected outcome — the
	// assertion is the race detector staying quiet and the session
	// surviving.
	deadline := time.Now().Add(2 * time.Second)
	queries := 0
	for time.Now().Before(deadline) {
		sols, err := e.Query("loop(2000000)")
		if err == nil {
			for sols.Next() {
			}
			sols.Close()
		}
		queries++
	}
	close(stop)
	wg.Wait()

	if queries == 0 {
		t.Fatal("no queries completed")
	}
	// With the hammer stopped and cancellation cleared, the session must
	// answer normally again.
	e.SetTimeout(0)
	m, ok, err := e.QueryOnce("X is 1 + 2")
	if err != nil || !ok || m["X"].String() != "3" {
		t.Fatalf("session unusable after interrupt hammering: ok=%v err=%v m=%v", ok, err, m)
	}
}
