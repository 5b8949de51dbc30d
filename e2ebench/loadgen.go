package main

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The open-loop load generator. Batch i of a phase is due at
// start + i/rate whatever happened to earlier batches, and its latency is
// timed from that due time, not from when a connection was free to send
// it: a stall therefore charges every batch it delayed (no coordinated
// omission). A fixed set of workers — one connection each — takes the
// batches in due order, so a slow reply builds a backlog the way
// independent users would, instead of slowing the offered load.

// batchSender drives one request stream. prepare builds batch idx for
// connection worker before the batch is due; send sends it and reports
// how many items it carried and how many of them failed (transport error,
// non-2xx status, or an in-band item error).
type batchSender interface {
	prepare(worker, idx int)
	send(worker, idx int) (items, failed int)
}

// phaseResult is one open-loop phase's outcome.
type phaseResult struct {
	Rate       float64 // offered batches per second
	Sent       int
	Unsent     int // due but never sent before the send deadline
	BacklogMax int // most batches due but not yet sent, seen at any send
	Items      int64
	Failed     int64
	// LatMS is completion minus due time per sent batch; LateMS is send
	// minus due time (how late the generator ran).
	LatMS  []float64
	LateMS []float64
	// Wall runs from the first due time to the last completion.
	Wall time.Duration
}

// runOpenLoop offers rate batches per second for dur over workers
// connections. Sending stops at the window end plus grace; batches still
// unsent then are counted in Unsent (the backlog grew past recovery).
func runOpenLoop(rate float64, dur, grace time.Duration, workers int, send batchSender) (phaseResult, error) {
	interval := float64(time.Second) / rate
	due := int(float64(dur) / interval)
	if due < 1 {
		due = 1
	}
	start := time.Now().Add(2 * time.Millisecond)
	deadline := start.Add(dur + grace)
	dueAt := func(i int) time.Time { return start.Add(time.Duration(float64(i) * interval)) }

	var next atomic.Int64
	var mu sync.Mutex
	res := phaseResult{Rate: rate}
	// Indexed by batch, so each slot has one writer and the phase keeps
	// its schedule order; unsent batches stay NaN.
	lat, late := make([]float64, due), make([]float64, due)
	for i := range lat {
		lat[i], late[i] = math.NaN(), math.NaN()
	}
	var lastDone time.Time
	var sleepErr error
	timers := make([]*timer, workers)
	for w := range timers {
		tm, err := newTimer()
		if err != nil {
			for _, t := range timers[:w] {
				t.close()
			}
			return res, err
		}
		timers[w] = tm
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tm := timers[w]
			defer tm.close()
			var items, failed int64
			sent, backlogMax := 0, 0
			var done time.Time
			for {
				i := int(next.Add(1) - 1)
				if i >= due {
					break
				}
				at := dueAt(i)
				send.prepare(w, i)
				if d := time.Until(at); d > 0 {
					if err := tm.sleep(d); err != nil {
						mu.Lock()
						sleepErr = err
						mu.Unlock()
						break
					}
				}
				now := time.Now()
				if now.After(deadline) {
					break
				}
				if b := int(float64(now.Sub(start))/interval) + 1 - i; b > backlogMax {
					backlogMax = b
				}
				n, f := send.send(w, i)
				done = time.Now()
				sent++
				items += int64(n)
				failed += int64(f)
				lat[i] = float64(done.Sub(at)) / 1e6
				late[i] = float64(now.Sub(at)) / 1e6
			}
			mu.Lock()
			res.Sent += sent
			res.Items += items
			res.Failed += failed
			if backlogMax > res.BacklogMax {
				res.BacklogMax = backlogMax
			}
			if done.After(lastDone) {
				lastDone = done
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	for i := range lat {
		if !math.IsNaN(lat[i]) {
			res.LatMS = append(res.LatMS, lat[i])
			res.LateMS = append(res.LateMS, late[i])
		}
	}
	res.Unsent = due - res.Sent
	res.Wall = lastDone.Sub(start)
	return res, sleepErr
}

// timer sleeps with a timerfd(2) read through the runtime's network
// poller. The runtime's own timers round sub-millisecond sleeps up to the
// next millisecond, which would swamp the latencies being measured, and a
// nanosleep(2) would hold a scheduler P for its whole duration, starving
// the connections' goroutines; a timerfd wakes the parked goroutine at the
// due time, to within the kernel's timer slack, without either cost.
type timer struct {
	f   *os.File
	buf [8]byte
}

func newTimer() (*timer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &timer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d (d > 0).
func (t *timer) sleep(d time.Duration) error {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // it_interval, it_value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := t.f.Read(t.buf[:])
	return err
}

func (t *timer) close() { t.f.Close() }

// ladderRate is rung k of the fixed geometric load ladder: base·2^(k/8).
func ladderRate(base float64, k int) float64 {
	return base * math.Pow(2, float64(k)/8)
}
