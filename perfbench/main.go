// Command perfbench is the repository's benchmark: it drives one
// workload in-process, checks the program's outputs, and prints the
// workload's end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as the last line of its output. run.sh builds and runs it
// from the root of a checkout:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare .bench_build/results-old .bench_build/results
//
// README.md records why each workload exists and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"steppingnet/internal/tensor"
)

// specPath and resultDir are relative to the checkout root, where the
// benchmark runs.
const (
	specPath  = "BENCHMARK.json"
	resultDir = ".bench_build/results"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// fingerprint identifies the machine and build a result came from.
// Results with different fingerprints are not comparable.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Backend    string `json:"backend"`
	GoVersion  string `json:"go_version"`
}

func hostFingerprint() fingerprint {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: model,
		Backend: tensor.Backend(), GoVersion: runtime.Version(),
	}
}

// savedResult is a run's result as kept under resultDir for compare.
type savedResult struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "steady, overload, repeat or construct")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}

	// Load comes from this one process. Cap it at two cores so results
	// from larger machines stay comparable with the reference box.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "workload %s, seed %d, %ds, trace %v\nfingerprint %s\n", o.workload, o.seed, o.seconds, o.trace, fpJSON)

	out := newReport()
	switch o.workload {
	case "construct":
		err = runConstruct(o, out)
	case "steady", "overload", "repeat":
		err = runServing(o, servingSpecs[o.workload], out)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err == nil && o.trace {
		err = ladderProbes(o.seed, out)
	}
	if err != nil {
		return err
	}

	want := sp.EndToEnd
	if o.trace {
		want = sp.PerLayer
	}
	res, err := out.emit(stdout, want)
	if err != nil {
		return err
	}
	// The result line is already out; a failed save loses only the
	// copy kept for compare.
	if err := save(savedResult{Workload: o.workload, Seed: o.seed, Trace: o.trace, Fingerprint: fp, Result: res}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving the result:", err)
	}
	return nil
}

func save(r savedResult) error {
	if err := os.MkdirAll(resultDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%v-seed%d.json", r.Workload, r.Trace, r.Seed)
	return os.WriteFile(filepath.Join(resultDir, name), b, 0o644)
}

// loadResults reads every saved result in dir.
func loadResults(dir string) ([]savedResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no results in %s", dir)
	}
	var rs []savedResult
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r savedResult
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}
