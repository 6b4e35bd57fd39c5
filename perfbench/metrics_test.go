package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestSupportedTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},       // even the median would have only 9.5 beyond it
		{20, 0.5},     // 10 beyond the median
		{99, 0.5},     // p90 would have 9.9 beyond it
		{100, 0.9},    // 10 beyond p90
		{999, 0.9},    // p99 would have 9.99 beyond it
		{1000, 0.99},  // 10 beyond p99
		{50000, 0.99}, // p99 is the highest percentile reported
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// The ⌈q·n⌉-th smallest: exactly 10 samples lie above p99 of 1000.
	for q, want := range map[float64]float64{0.5: 500, 0.9: 900, 0.99: 990, 1: 1000, 0: 1} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %v, want 0", got)
	}
}

func TestRefusalsAndFailuresAreMissesAtRungZero(t *testing.T) {
	ms := time.Millisecond
	outs := []outcome{
		{answered: true, late: 1 * ms, deadline: 2 * ms, rung: 4},           // met
		{answered: true, late: 2 * ms, deadline: 2 * ms, rung: 3},           // met exactly at the deadline
		{answered: true, late: 3 * ms, deadline: 2 * ms, rung: 4},           // answered late: a miss
		{answered: false, deadline: 2 * ms},                                 // refused by admission
		{answered: false, deadline: 6 * ms, hi: true},                       // failed
		{answered: true, late: 5 * ms, deadline: 6 * ms, rung: 2, hi: true}, // met
	}
	q := summarise(outs)
	if q.sent != 6 || q.hiSent != 2 {
		t.Fatalf("sent %d (hi %d), want 6 (hi 2)", q.sent, q.hiSent)
	}
	if want := 3.0 / 6; q.hitRate != want {
		t.Errorf("deadline_hit_rate = %v, want %v: every request sent is in the denominator", q.hitRate, want)
	}
	if want := 1.0 / 2; q.hiHitRate != want {
		t.Errorf("hi_deadline_hit_rate = %v, want %v", q.hiHitRate, want)
	}
	if want := (4.0 + 3 + 2) / 6; math.Abs(q.rungMean-want) > 1e-12 {
		t.Errorf("rung_mean = %v, want %v: misses count as rung 0", q.rungMean, want)
	}
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a := schedule(7, 1000, 2*time.Second, tightMix, 0.6)
	b := schedule(7, 1000, 2*time.Second, tightMix, 0.6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 1000, 2*time.Second, tightMix, 0.6)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2s at 1000/s", n)
	}
	hot, hi := 0, 0
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if x.due < 0 || x.due >= 2*time.Second {
			t.Fatalf("arrival %d due at %v, outside the window", i, x.due)
		}
		if x.input < 0 || x.input >= hotKeys+coldRing {
			t.Fatalf("arrival %d sends input %d", i, x.input)
		}
		if x.input < hotKeys {
			hot++
		}
		if tightMix[x.class].hi {
			hi++
		}
	}
	if share := float64(hot) / float64(len(a)); share < 0.55 || share > 0.65 {
		t.Errorf("hot-key share %.3f, want about 0.6", share)
	}
	if share := float64(hi) / float64(len(a)); share < 0.25 || share > 0.35 {
		t.Errorf("high-class share %.3f, want about 0.3", share)
	}
	for _, x := range schedule(7, 1000, time.Second, tightMix, 0) {
		if x.input < hotKeys {
			t.Fatal("a schedule without repeats sent a hot key")
		}
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	fp := fingerprint{NumCPU: 2, GOMAXPROCS: 2, CPUModel: "x", Backend: "avx2", GoVersion: "go1.24.0"}
	other := fp
	other.Backend = "scalar"
	if err := sameFingerprint([]savedResult{{Fingerprint: fp}, {Fingerprint: fp}}); err != nil {
		t.Fatalf("identical fingerprints refused: %v", err)
	}
	err := sameFingerprint([]savedResult{{Fingerprint: fp}, {Fingerprint: other}})
	if !errors.Is(err, errFingerprint) {
		t.Fatalf("different backends compared: err = %v", err)
	}
}
