package obs

import (
	"sync"
	"testing"
	"time"
)

// last returns the ring's newest sample, if any, through Window.
func last(r *SeriesRing) (Sample, bool) {
	all := r.Window(0, time.Time{})
	if len(all) == 0 {
		return Sample{}, false
	}
	return all[len(all)-1], true
}

func TestSeriesRingFillAndRollover(t *testing.T) {
	r := NewSeriesRing(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d, want 3, 0", r.Cap(), r.Len())
	}
	if _, ok := last(r); ok {
		t.Fatal("empty ring returned a sample")
	}
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		r.Add(base.Add(time.Duration(i)*time.Second), map[string]float64{"v": float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len after 5 adds into cap-3 ring = %d, want 3", r.Len())
	}
	newest, ok := last(r)
	if !ok || newest.Values["v"] != 4 {
		t.Fatalf("newest = %+v, %v; want v=4", newest, ok)
	}
	// Oldest two (v=0, v=1) must have been overwritten; order oldest-first.
	got := r.Window(0, base.Add(time.Hour))
	if len(got) != 3 {
		t.Fatalf("Window(0) returned %d samples, want 3", len(got))
	}
	for i, want := range []float64{2, 3, 4} {
		if got[i].Values["v"] != want {
			t.Errorf("Window[%d].v = %v, want %v", i, got[i].Values["v"], want)
		}
	}
}

func TestSeriesRingWindowCutoff(t *testing.T) {
	r := NewSeriesRing(10)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		r.Add(base.Add(time.Duration(i)*time.Minute), map[string]float64{"v": float64(i)})
	}
	now := base.Add(5 * time.Minute)
	// 2m window from t=5m keeps samples at t=3m, 4m, 5m.
	got := r.Window(2*time.Minute, now)
	if len(got) != 3 || got[0].Values["v"] != 3 || got[2].Values["v"] != 5 {
		t.Fatalf("Window(2m) = %+v, want v=3,4,5", got)
	}
	// A window wider than retention returns everything.
	if got := r.Window(time.Hour, now); len(got) != 6 {
		t.Fatalf("Window(1h) returned %d samples, want 6", len(got))
	}
}

func TestSeriesRingCopiesValues(t *testing.T) {
	r := NewSeriesRing(2)
	vals := map[string]float64{"v": 1}
	r.Add(time.Unix(0, 0), vals)
	vals["v"] = 99 // caller reuses its map; the ring must not see it
	newest, _ := last(r)
	if newest.Values["v"] != 1 {
		t.Errorf("ring saw caller's mutation: v = %v, want 1", newest.Values["v"])
	}
	newest.Values["v"] = 77 // and mutating a read must not corrupt the ring
	again, _ := last(r)
	if again.Values["v"] != 1 {
		t.Errorf("reader mutation reached the ring: v = %v, want 1", again.Values["v"])
	}
}

func TestSeriesRingMinCapacity(t *testing.T) {
	r := NewSeriesRing(0)
	if r.Cap() != 1 {
		t.Fatalf("Cap() = %d, want 1 (floor)", r.Cap())
	}
	r.Add(time.Unix(1, 0), map[string]float64{"v": 1})
	r.Add(time.Unix(2, 0), map[string]float64{"v": 2})
	if newest, _ := last(r); newest.Values["v"] != 2 {
		t.Errorf("cap-1 ring kept %v, want the newest sample", newest.Values["v"])
	}
}

// TestSeriesRingConcurrent interleaves a writer with windowed readers;
// meaningful under -race.
func TestSeriesRingConcurrent(t *testing.T) {
	r := NewSeriesRing(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				r.Add(time.Unix(int64(i), 0), map[string]float64{"v": float64(i)})
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Window(0, time.Unix(1<<40, 0))
				r.Len()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
