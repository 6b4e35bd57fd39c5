package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// compare prints, per workload and mode, the median of every metric
// over an old and a new directory of saved results. It refuses to
// compare results whose fingerprints differ: a number measured on
// another machine, core count, GEMM backend or toolchain says nothing
// about the change under test. For a workload with both traced and
// untraced runs in the new set it also prints the tracing overhead.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare OLD_DIR NEW_DIR")
	}
	old, err := loadResults(args[0])
	if err != nil {
		return err
	}
	cur, err := loadResults(args[1])
	if err != nil {
		return err
	}
	if err := sameFingerprint(append(append([]savedResult(nil), old...), cur...)); err != nil {
		return err
	}
	om, cm := medians(old), medians(cur)
	var keys []string
	for k := range cm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-34s %-28s %12s %12s %8s\n", "workload/mode", "metric", "old", "new", "change")
	for _, k := range keys {
		var names []string
		for n := range cm[k] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			nv := cm[k][n]
			ov, ok := om[k][n]
			if !ok {
				fmt.Fprintf(w, "%-34s %-28s %12s %12.5g %8s\n", k, n, "-", nv, "new")
				continue
			}
			change := "-"
			if ov != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(nv-ov)/ov)
			}
			fmt.Fprintf(w, "%-34s %-28s %12.5g %12.5g %8s\n", k, n, ov, nv, change)
		}
	}
	for _, k := range keys {
		wl, mode, _ := strings.Cut(k, "/")
		traced, ok1 := cm[k]["trace.latency_p50_ms"]
		plain, ok2 := cm[wl+"/timed"]["latency_p50_ms"]
		if mode == "trace" && ok1 && ok2 && plain > 0 {
			fmt.Fprintf(w, "tracing overhead on %s: latency p50 %.4gms traced vs %.4gms timed (%+.1f%%)\n",
				wl, traced, plain, 100*(traced-plain)/plain)
		}
	}
	return nil
}

var errFingerprint = errors.New("fingerprints differ: results from different machines or builds are not comparable")

// sameFingerprint returns errFingerprint unless every result came
// from the same machine and build.
func sameFingerprint(rs []savedResult) error {
	for _, r := range rs[1:] {
		if r.Fingerprint != rs[0].Fingerprint {
			return fmt.Errorf("%w: %+v against %+v", errFingerprint, rs[0].Fingerprint, r.Fingerprint)
		}
	}
	return nil
}

// medians groups results by workload and mode and takes each metric's
// median over the group's runs.
func medians(rs []savedResult) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range rs {
		k := r.Workload + "/timed"
		if r.Trace {
			k = r.Workload + "/trace"
		}
		if vals[k] == nil {
			vals[k] = map[string][]float64{}
		}
		for n, m := range r.Result.Metrics {
			vals[k][n] = append(vals[k][n], m.Value)
		}
	}
	out := map[string]map[string]float64{}
	for k, byName := range vals {
		out[k] = map[string]float64{}
		for n, v := range byName {
			out[k][n] = median(v)
		}
	}
	return out
}
