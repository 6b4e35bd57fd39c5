package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads back: the
// metric names each mode must print, so a run can never silently drop
// or invent one.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's metrics, human-readable notes and
// correctness problems.
type report struct {
	metrics   map[string]metricValue
	notes     []string
	problems  []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

func (r *report) add(name string, v float64, unit string) { r.metrics[name] = metricValue{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness problem; the run then reports
// "correct": false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit writes the notes, then the result line holding exactly the
// metrics the spec declares for the mode. A declared metric the run
// did not measure, or measured in another unit, is an error in the
// benchmark itself.
func (r *report) emit(w io.Writer, want []struct{ Name, Unit string }) (result, error) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "INCORRECT:", p)
	}
	res := result{
		Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return res, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	b, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintln(w, string(b))
	return res, nil
}
