package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/probe"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("empty Run: %v", err)
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced with no events: %v", e.Now())
	}
}

func TestEngineRunTwice(t *testing.T) {
	e := NewEngine()
	if err := e.Run(); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := e.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var got time.Duration
	e.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		p.Sleep(7 * time.Millisecond)
		got = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 12*time.Millisecond {
		t.Fatalf("Now after sleeps = %v, want 12ms", got)
	}
	if e.Now() != 12*time.Millisecond {
		t.Fatalf("engine Now = %v, want 12ms", e.Now())
	}
}

func TestSleepZeroYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced time to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSleepUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Go("a", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		p.SleepUntil(2 * time.Millisecond) // already past
		if p.Now() != 10*time.Millisecond {
			t.Errorf("SleepUntil went backwards: %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, n := range []string{"p0", "p1", "p2"} {
			name := n
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					p.Sleep(time.Millisecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: run0=%v run%d=%v", first, trial, again)
			}
		}
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, n := range []string{"x", "y", "z"} {
		name := n
		e.Go(name, func(p *Proc) {
			p.Sleep(3 * time.Millisecond) // all wake at the same instant
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "y", "z"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("same-time order = %v, want %v", order, want)
		}
	}
}

func TestParkWake(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		p.Engine().Wake(target)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4*time.Millisecond {
		t.Fatalf("woke at %v, want 4ms", woke)
	}
}

func TestWakeAtFuture(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Engine().WakeAt(target, 9*time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 9*time.Millisecond {
		t.Fatalf("woke at %v, want 9ms", woke)
	}
}

func TestDoubleWakeIsDropped(t *testing.T) {
	e := NewEngine()
	wakes := 0
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Park()
		wakes++
		p.Sleep(20 * time.Millisecond) // if the stale wake fired, this would end early
		wakes++
	})
	e.Go("waker", func(p *Proc) {
		p.Engine().Wake(target)
		p.Engine().Wake(target) // second wake for the same park: stale
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("end time %v, want 20ms (stale wake must not cut the sleep short)", e.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.Park() // never woken
	})
	err := e.Run()
	d, ok := err.(*Deadlock)
	if !ok {
		t.Fatalf("expected *Deadlock, got %v", err)
	}
	if len(d.Procs) != 1 || d.Procs[0] != "stuck" {
		t.Fatalf("deadlock procs = %v", d.Procs)
	}
	if d.Error() == "" {
		t.Fatal("empty deadlock message")
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	e := NewEngine()
	var childTime time.Duration
	e.Go("parent", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		p.Engine().Go("child", func(c *Proc) {
			childTime = c.Now()
		})
		p.Sleep(time.Millisecond)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 2*time.Millisecond {
		t.Fatalf("child started at %v, want 2ms", childTime)
	}
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	e := NewEngine()
	var m Mutex
	var order []string
	inside := 0
	for _, n := range []string{"a", "b", "c"} {
		name := n
		e.Go(name, func(p *Proc) {
			m.Lock(p)
			inside++
			if inside != 1 {
				t.Errorf("mutex violated: %d inside", inside)
			}
			order = append(order, name)
			p.Sleep(time.Millisecond)
			inside--
			m.Unlock(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("lock order = %v, want FIFO %v", order, want)
		}
	}
}

func TestMutexTryLock(t *testing.T) {
	e := NewEngine()
	var m Mutex
	e.Go("a", func(p *Proc) {
		if !m.TryLock() {
			t.Error("TryLock on free mutex failed")
		}
		if m.TryLock() {
			t.Error("TryLock on held mutex succeeded")
		}
		m.Unlock(p)
		if !m.TryLock() {
			t.Error("TryLock after Unlock failed")
		}
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesTogetherAndReuses(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(3)
	var phase1, phase2 []time.Duration
	for i := 0; i < 3; i++ {
		delay := time.Duration(i) * time.Millisecond
		e.Go("w", func(p *Proc) {
			p.Sleep(delay)
			b.Wait(p)
			phase1 = append(phase1, p.Now())
			p.Sleep(delay)
			b.Wait(p)
			phase2 = append(phase2, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range phase1 {
		if ts != 2*time.Millisecond {
			t.Fatalf("phase1 release at %v, want 2ms (slowest arrival)", ts)
		}
	}
	for _, ts := range phase2 {
		if ts != 4*time.Millisecond {
			t.Fatalf("phase2 release at %v, want 4ms", ts)
		}
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	e := NewEngine()
	s := NewSemaphore(2)
	inside, peak := 0, 0
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			s.Acquire(p)
			inside++
			if inside > peak {
				peak = inside
			}
			p.Sleep(time.Millisecond)
			inside--
			s.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if peak != 2 {
		t.Fatalf("peak concurrency %d, want 2", peak)
	}
	// 6 unit jobs, 2 at a time -> 3ms.
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("end time %v, want 3ms", e.Now())
	}
}

func TestGroupJoin(t *testing.T) {
	e := NewEngine()
	var g Group
	done := 0
	e.Go("parent", func(p *Proc) {
		for i := 0; i < 4; i++ {
			d := time.Duration(i+1) * time.Millisecond
			g.Spawn(p.Engine(), "child", func(c *Proc) {
				c.Sleep(d)
				done++
			})
		}
		g.Wait(p)
		if done != 4 {
			t.Errorf("joined with %d children done, want 4", done)
		}
		if p.Now() != 4*time.Millisecond {
			t.Errorf("join at %v, want 4ms", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupWaitWhenEmpty(t *testing.T) {
	e := NewEngine()
	e.Go("parent", func(p *Proc) {
		var g Group
		g.Wait(p) // should not block
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitQueueWakeOrder(t *testing.T) {
	e := NewEngine()
	var wq WaitQueue
	var order []string
	for _, n := range []string{"first", "second", "third"} {
		name := n
		e.Go(name, func(p *Proc) {
			wq.Wait(p)
			order = append(order, name)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if wq.Len() != 3 {
			t.Errorf("queue len = %d, want 3", wq.Len())
		}
		wq.WakeOne(p.Engine())
		p.Sleep(time.Millisecond)
		wq.WakeAll(p.Engine())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

// TestWallConcurrentNow guards the lazy-init fix: a zero-value Wall
// shared across goroutines must latch its epoch exactly once. Run with
// -race to catch regressions.
func TestWallConcurrentNow(t *testing.T) {
	var w Wall
	var wg sync.WaitGroup
	results := make([]time.Duration, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = w.Now()
		}(i)
	}
	wg.Wait()
	for i, d := range results {
		if d < 0 {
			t.Fatalf("goroutine %d saw negative elapsed time %v", i, d)
		}
	}
}

// TestProcShellReuse checks that finished process shells are recycled:
// a spawn-join loop should settle onto pooled shells instead of
// allocating a fresh goroutine and channel per spawn.
func TestProcShellReuse(t *testing.T) {
	e := NewEngine()
	seen := make(map[*Proc]int)
	e.Go("driver", func(p *Proc) {
		for i := 0; i < 100; i++ {
			var g Group
			g.Spawn(p.Engine(), "worker", func(c *Proc) {
				seen[c]++
				c.Sleep(time.Microsecond)
			})
			g.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range seen {
		total += n
	}
	if total != 100 {
		t.Fatalf("ran %d workers, want 100", total)
	}
	// 100 sequential spawns should reuse a small number of shells.
	if len(seen) > 3 {
		t.Fatalf("used %d distinct shells for 100 sequential spawns, want pooling", len(seen))
	}
}

// TestBatchedSameTimeDispatch stresses the ready-list fast path: a
// barrier releasing many processes at one instant must preserve FIFO
// wake order and leave the heap free of stale entries.
func TestBatchedSameTimeDispatch(t *testing.T) {
	const n = 64
	e := NewEngine()
	b := NewBarrier(n)
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Go("w", func(p *Proc) {
			p.Sleep(time.Duration(i%7) * time.Millisecond)
			b.Wait(p)
			order = append(order, i)
			p.Sleep(time.Millisecond)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("released %d, want %d", len(order), n)
	}
	// The last arriver (largest i with i%7 == 6) completes the barrier,
	// appends first, and releases the waiters in FIFO arrival order:
	// delay cohorts ascending, spawn order within each cohort.
	want := []int{62}
	for cohort := 0; cohort < 7; cohort++ {
		for i := cohort; i < n; i += 7 {
			if i != 62 {
				want = append(want, i)
			}
		}
	}
	for idx := range want {
		if order[idx] != want[idx] {
			t.Fatalf("release order[%d] = %d, want %d (full: %v)", idx, order[idx], want[idx], order)
		}
	}
	if len(e.heap) != 0 || e.readyHead != len(e.ready) {
		t.Fatalf("engine left %d heap / %d ready entries after Run", len(e.heap), len(e.ready)-e.readyHead)
	}
}

func TestWallContext(t *testing.T) {
	w := NewWall()
	t0 := w.Now()
	w.Sleep(50 * time.Millisecond) // Scale 0: returns immediately
	if w.Now()-t0 > 40*time.Millisecond {
		t.Fatal("Wall with Scale 0 actually slept")
	}
	var zero Wall
	if zero.Now() < 0 {
		t.Fatal("zero Wall Now negative")
	}
}

// TestDeadlockAfterShellReuse reaches a deadlock mid-run, after earlier
// processes have finished and their shells have been recycled by Go.
// Detection happens in whichever process finds nothing left to
// dispatch — here the last one to park — and the report must name
// exactly the processes still parked, not the finished ones whose
// shells they reuse.
func TestDeadlockAfterShellReuse(t *testing.T) {
	e := NewEngine()
	var wq WaitQueue
	shells := make(map[*Proc]bool)
	reused := 0
	e.Go("spawner", func(p *Proc) {
		for i := 0; i < 3; i++ {
			var g Group
			g.Spawn(e, "short", func(c *Proc) {
				shells[c] = true
				c.Sleep(time.Millisecond)
			})
			g.Wait(p)
		}
		for _, name := range []string{"stuck-b", "stuck-a"} {
			q := e.Go(name, func(c *Proc) {
				if c.Name() == "stuck-a" {
					c.Sleep(2 * time.Millisecond) // park after the spawner has finished
				}
				wq.Wait(c)
			})
			if shells[q] {
				reused++
			}
		}
		p.Sleep(time.Millisecond)
	})
	err := e.Run()
	var d *Deadlock
	if !errors.As(err, &d) {
		t.Fatalf("expected *Deadlock, got %v", err)
	}
	if want := []string{"stuck-a", "stuck-b"}; !reflect.DeepEqual(d.Procs, want) {
		t.Fatalf("deadlock procs = %v, want %v", d.Procs, want)
	}
	if d.At != 5*time.Millisecond {
		t.Fatalf("deadlock at %v, want 5ms", d.At)
	}
	if reused == 0 {
		t.Fatal("no parked process reused a finished shell; the test lost its point")
	}
	if wq.Len() != 2 {
		t.Fatalf("%d processes parked on the queue, want 2", wq.Len())
	}
}

// TestRunLeavesNoGoroutines checks that a clean Run reaps every worker
// goroutine it created: fan-out, barriers and shell reuse included.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	b := NewBarrier(32)
	for i := 0; i < 32; i++ {
		e.Go("w", func(p *Proc) {
			for round := 0; round < 4; round++ {
				_ = Par(p,
					func(c Context) error { c.Sleep(time.Microsecond); return nil },
					func(c Context) error { c.Sleep(2 * time.Microsecond); return nil })
				b.Wait(p)
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Workers exit asynchronously once Run closes their wake channels.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoneSleeperSelfDispatch drives the self-dispatch fast path: a
// process that is always its own next event never hands off, yet every
// sleep must still advance virtual time and count as a dispatch.
func TestLoneSleeperSelfDispatch(t *testing.T) {
	const n = 100000
	e := NewEngine()
	rec := probe.New()
	e.SetProbe(rec)
	e.Go("lone", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != n*time.Microsecond {
		t.Fatalf("end time %v, want %v", e.Now(), n*time.Microsecond)
	}
	if got := rec.Metrics().Counter("sim.dispatches").Value(); got != n+1 {
		t.Fatalf("%d dispatches, want %d (start plus one per sleep)", got, n+1)
	}
}

// BenchmarkEngineHandoff measures the host cost of one dispatch: 1024
// processes meeting at a barrier b.N times (mass release, ready-list
// dispatch), and two processes waking each other b.N times (a handoff
// per dispatch, the worst case for goroutine switching).
func BenchmarkEngineHandoff(b *testing.B) {
	report := func(b *testing.B, rec *probe.Recorder) {
		if n := rec.Metrics().Counter("sim.dispatches").Value(); n > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/dispatch")
		}
	}
	b.Run("barrier-1024", func(b *testing.B) {
		e := NewEngine()
		rec := probe.New()
		e.SetProbe(rec)
		bar := NewBarrier(1024)
		for i := 0; i < 1024; i++ {
			e.Go("w", func(p *Proc) {
				for r := 0; r < b.N; r++ {
					bar.Wait(p)
				}
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		report(b, rec)
	})
	b.Run("pingpong", func(b *testing.B) {
		e := NewEngine()
		rec := probe.New()
		e.SetProbe(rec)
		turn := 0
		var wq [2]WaitQueue
		for side := 0; side < 2; side++ {
			side := side
			e.Go("pp", func(p *Proc) {
				for r := 0; r < b.N; r++ {
					for turn != side {
						wq[side].Wait(p)
					}
					turn = 1 - side
					wq[1-side].WakeOne(e)
				}
			})
		}
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		report(b, rec)
	})
}
