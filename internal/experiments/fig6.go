package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"steppingnet/internal/baselines"
	"steppingnet/internal/baselines/anywidth"
	"steppingnet/internal/baselines/slimmable"
	"steppingnet/internal/core"
)

// Fig6Curve is one method's accuracy-vs-MAC series for one network.
type Fig6Curve struct {
	Method string
	Points []baselines.OperatingPoint
}

// Fig6Net groups the three curves of one subplot.
type Fig6Net struct {
	Name   string
	Curves []Fig6Curve
}

// Fig6Result reproduces Fig. 6: for each of the three networks, the
// accuracy of SteppingNet, the slimmable network and the any-width
// network at matched MAC levels.
type Fig6Result struct {
	Scale Scale
	Nets  []Fig6Net
}

// Fig6 runs all three methods on every workload. All methods are
// evaluated at the workload's budget fractions so the comparison is
// at equal computational cost, which is the paper's x-axis.
func Fig6(sc Scale) (*Fig6Result, error) {
	res := &Fig6Result{Scale: sc}
	for _, w := range Workloads(sc) {
		net := Fig6Net{Name: w.Name}

		sr, err := runStepping(w, sc, false, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 %s stepping: %w", w.Name, err)
		}
		net.Curves = append(net.Curves, Fig6Curve{Method: "SteppingNet", Points: steppingPoints(sr)})

		bcfg := baselines.Config{
			Subnets: len(w.Budgets), Budgets: w.Budgets,
			Epochs: sc.BaselineEpochs, BatchSize: sc.BatchSize, Seed: sc.Seed,
		}
		slim, err := slimmable.Run(w.Build, w.Data, bcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 %s slimmable: %w", w.Name, err)
		}
		net.Curves = append(net.Curves, Fig6Curve{Method: "Slimmable Net.", Points: slim.Points})

		aw, err := anywidth.Run(w.Build, w.Data, bcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig6 %s anywidth: %w", w.Name, err)
		}
		net.Curves = append(net.Curves, Fig6Curve{Method: "Any-width Net.", Points: aw.Points})

		res.Nets = append(res.Nets, net)
	}
	return res, nil
}

func steppingPoints(r *core.Result) []baselines.OperatingPoint {
	pts := make([]baselines.OperatingPoint, 0, len(r.Stats))
	for _, s := range r.Stats {
		pts = append(pts, baselines.OperatingPoint{
			Subnet: s.Subnet, MACs: s.MACs, MACFrac: s.MACFrac, Accuracy: s.Accuracy,
		})
	}
	return pts
}

// Render prints each subplot as a series table (one row per MAC
// level, one column per method), the textual equivalent of the
// paper's three line charts.
func (f *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 6: Comparison with the any-width network and the slimmable network (scale=%s)\n", f.Scale.Name)
	for _, net := range f.Nets {
		fmt.Fprintf(&b, "\n%s\n", net.Name)
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "point")
		for _, c := range net.Curves {
			fmt.Fprintf(tw, "\t%s #MAC%%\t%s Acc", c.Method, c.Method)
		}
		fmt.Fprintln(tw)
		n := 0
		for _, c := range net.Curves {
			if len(c.Points) > n {
				n = len(c.Points)
			}
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(tw, "%d", i+1)
			for _, c := range net.Curves {
				if i < len(c.Points) {
					p := c.Points[i]
					fmt.Fprintf(tw, "\t%.1f%%\t%.2f%%", 100*p.MACFrac, 100*p.Accuracy)
				} else {
					fmt.Fprint(tw, "\t\t")
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	return b.String()
}

// WinsAtMatchedMACs counts, over all nets and MAC levels, how often
// SteppingNet's accuracy is at least each baseline's. Tests use it to
// state the paper's headline claim quantitatively over the Fig. 6
// points that `stepbench -exp all` prints.
func (f *Fig6Result) WinsAtMatchedMACs() (wins, comparisons int) {
	for _, net := range f.Nets {
		var stepping []baselines.OperatingPoint
		for _, c := range net.Curves {
			if c.Method == "SteppingNet" {
				stepping = c.Points
			}
		}
		for _, c := range net.Curves {
			if c.Method == "SteppingNet" {
				continue
			}
			for i, p := range c.Points {
				if i >= len(stepping) {
					break
				}
				comparisons++
				if stepping[i].Accuracy >= p.Accuracy {
					wins++
				}
			}
		}
	}
	return wins, comparisons
}
