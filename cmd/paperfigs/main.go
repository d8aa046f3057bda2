// Command paperfigs regenerates every figure of the paper's evaluation
// (Orduña et al., ICPP 2000) as text tables/series:
//
//	paperfigs -fig 1        Tabu search trace (Figure 1)
//	paperfigs -fig 2        16-switch partition + coefficients (Figure 2)
//	paperfigs -fig 3        16-switch latency/traffic curves (Figure 3)
//	paperfigs -fig 4        24-switch rings partition (Figure 4)
//	paperfigs -fig 5        24-switch latency/traffic curves (Figure 5)
//	paperfigs -fig 6        Cc vs performance correlation (Figure 6)
//	paperfigs -fig claims   headline claims (gains, optimality, heuristics)
//	paperfigs -fig ablations design-choice ablations + future-work extensions
//	paperfigs -fig resilience link-failure injection and degraded-mode rescheduling
//	paperfigs -fig adversarial PISA-style adversarial DAG search: HEFT vs Tabu-refined placement
//	paperfigs -fig all      everything above
//
// Use -quick for a reduced simulation scale.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"commsched/internal/experiments"
	"commsched/internal/plot"
	"commsched/internal/runctl"
	"commsched/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1..6, clustering, claims, ablations, model, resilience, adversarial, or all")
	quick := flag.Bool("quick", false, "reduced simulation scale (for smoke runs)")
	csvDir := flag.String("csv", "", "also write fig1/fig3/fig5/fig6 data as CSV files into this directory")
	manifest := flag.String("manifest", "", "write a run manifest (seeds, topology hashes, timings) to this file")
	tel := telemetry.Flags()
	durable := runctl.Flags(true)
	flag.Parse()

	if err := mainErr(*fig, *quick, *csvDir, *tel, *manifest, *durable); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func mainErr(fig string, quick bool, csvDir string, opts telemetry.Options, manifestPath string, durable runctl.Config) error {
	svc, err := telemetry.Start(opts)
	if err != nil {
		return err
	}

	sc := experiments.FullScale()
	if quick {
		sc = experiments.QuickScale()
		sc.RandomMappings = 5
	}
	man := experiments.NewManifest("paperfigs", sc)
	if net, err := experiments.Network16(); err == nil {
		man.AddTopology("irregular16", net)
	}
	if net, err := experiments.Network24Rings(); err == nil {
		man.AddTopology("rings24", net)
	}
	// Publish the manifest immediately so /runs identifies the run while
	// it is still executing; the final Emit refreshes the duration.
	man.Emit()

	id, err := man.RunstateIdentity()
	if err != nil {
		svc.Close()
		return err
	}
	finish, err := runctl.Activate(durable, id, os.Stderr)
	if err != nil {
		svc.Close()
		return err
	}

	// Ctrl-C / SIGTERM stops the experiment loops between units (via the
	// par root context — the experiment helpers pass nil contexts) so the
	// finish/Close paths below still flush checkpoints and sinks.
	_, stop := runctl.Signals(context.Background(), os.Stderr)
	runErr := func() error {
		if csvDir != "" {
			if err := writeCSVs(csvDir, fig, sc, quick); err != nil {
				return err
			}
		}
		return run(fig, sc, quick)
	}()
	stop()

	if err := finish(); err != nil && runErr == nil {
		runErr = err
	}

	man.Finish()
	man.Emit()
	if manifestPath == "" && csvDir != "" {
		manifestPath = filepath.Join(csvDir, "manifest.json")
	}
	if manifestPath != "" && runErr == nil {
		if err := man.Write(manifestPath); err != nil {
			runErr = err
		}
	}
	if err := svc.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// writeCSVs regenerates the plottable figures and stores their raw data.
// The set of files is figure-aware: `-fig adversarial` writes only the
// adversarial CSV, `-fig all` writes everything, and any other figure
// keeps the original fig1/fig3/fig5/fig6 set (so smoke runs comparing
// those files stay byte-stable).
func writeCSVs(dir string, fig string, sc experiments.Scale, quick bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	save := func(name string, write func(w io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if fig == "adversarial" || fig == "all" {
		adv, err := experiments.Adversarial(nil, advConfig(quick))
		if err != nil {
			return err
		}
		if err := save("fig_adversarial.csv", adv.WriteCSV); err != nil {
			return err
		}
		if fig == "adversarial" {
			fmt.Printf("wrote adversarial CSV data to %s\n", dir)
			return nil
		}
	}
	f1, err := experiments.Fig1()
	if err != nil {
		return err
	}
	if err := save("fig1.csv", f1.WriteCSV); err != nil {
		return err
	}
	f3, err := experiments.Fig3(sc)
	if err != nil {
		return err
	}
	if err := save("fig3.csv", f3.WriteCSV); err != nil {
		return err
	}
	f5, err := experiments.Fig5(sc)
	if err != nil {
		return err
	}
	if err := save("fig5.csv", f5.WriteCSV); err != nil {
		return err
	}
	f6, err := experiments.CorrelationFromSim(f3)
	if err != nil {
		return err
	}
	if err := save("fig6.csv", f6.WriteCSV); err != nil {
		return err
	}
	fmt.Printf("wrote fig1/fig3/fig5/fig6 CSV data to %s\n", dir)
	return nil
}

// advConfig picks the adversarial-search scale.
func advConfig(quick bool) experiments.AdvConfig {
	if quick {
		return experiments.QuickAdvConfig()
	}
	return experiments.FullAdvConfig()
}

func run(fig string, sc experiments.Scale, quick bool) error {
	switch fig {
	case "1":
		return fig1()
	case "2":
		return fig2(sc)
	case "3", "clustering": // "clustering" = the full 16-switch pipeline:
		// characterize, schedule, simulate OP vs random mappings.
		_, err := fig3(sc)
		return err
	case "4":
		return fig4(sc)
	case "5":
		return fig5(sc)
	case "6":
		return fig6(nil, sc)
	case "claims":
		return claims(sc)
	case "ablations":
		return ablations(sc)
	case "model":
		return model(sc)
	case "resilience":
		return resilience(sc)
	case "adversarial":
		return adversarial(quick)
	case "all":
		if err := fig1(); err != nil {
			return err
		}
		if err := fig2(sc); err != nil {
			return err
		}
		sim, err := fig3(sc)
		if err != nil {
			return err
		}
		if err := fig4(sc); err != nil {
			return err
		}
		if err := fig5(sc); err != nil {
			return err
		}
		if err := fig6(sim, sc); err != nil {
			return err
		}
		if err := claims(sc); err != nil {
			return err
		}
		if err := ablations(sc); err != nil {
			return err
		}
		if err := model(sc); err != nil {
			return err
		}
		if err := resilience(sc); err != nil {
			return err
		}
		return adversarial(quick)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func model(sc experiments.Scale) error {
	header("Foundation [2]: equivalent-distance model vs network performance")
	mv, err := experiments.ValidateModel(16, 8, sc)
	if err != nil {
		return err
	}
	fmt.Print(mv.Table())

	header("Ablation: up*/down* root election")
	ra, err := experiments.AblateRoot(4, sc)
	if err != nil {
		return err
	}
	fmt.Print(ra.Table())

	header("Scaling: throughput gain vs network size")
	ss, err := experiments.StudyScaling([]int{16, 20, 24}, sc)
	if err != nil {
		return err
	}
	fmt.Print(ss.Table())
	return nil
}

func ablations(sc experiments.Scale) error {
	header("Ablation: distance model (equivalent resistance vs hop counts)")
	ma, err := experiments.AblateMetric(sc)
	if err != nil {
		return err
	}
	fmt.Print(ma.Table())

	header("Extension: gain vs intra-cluster traffic fraction")
	mt, err := experiments.StudyMixedTraffic([]float64{1.0, 0.8, 0.6, 0.4}, sc)
	if err != nil {
		return err
	}
	fmt.Print(mt.Table())

	header("Extension: unequal communication requirements (heavy cluster x50)")
	we, err := experiments.StudyWeighted(50)
	if err != nil {
		return err
	}
	fmt.Print(we.Table())
	return nil
}

func header(title string) { fmt.Printf("\n==== %s ====\n\n", title) }

func adversarial(quick bool) error {
	header("Adversarial search: instances where HEFT trails the Tabu-refined placement")
	r, err := experiments.Adversarial(nil, advConfig(quick))
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	return nil
}

func resilience(sc experiments.Scale) error {
	header("Resilience: link failures, degraded-mode rescheduling, repair vs from-scratch")
	r, err := experiments.Resilience(nil, []int{1, 2, 3}, sc)
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	return nil
}

func fig1() error {
	header("Figure 1: Tabu search trace, 16-switch network")
	r, err := experiments.Fig1()
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	var xs, ys []float64
	for _, tp := range r.Trace {
		xs = append(xs, float64(tp.Iteration))
		ys = append(ys, tp.F)
	}
	chart, err := plot.New("F(P_i) over Tabu iterations (peaks = restarts)", 72, 16).
		Axes("iteration", "F").
		Add(plot.Series{Label: "F", X: xs, Y: ys}).
		Render()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(chart)
	return nil
}

// plotSim renders a Figure 3/5-style latency-vs-traffic chart for the OP
// curve and up to three random curves.
func plotSim(r *experiments.SimResult) error {
	chart := plot.New("latency vs accepted traffic", 72, 18).
		Axes("accepted (flits/switch/cycle)", "latency (cycles)")
	addSeries := func(s experiments.SimSeries, label string) {
		var xs, ys []float64
		for _, p := range s.Points {
			xs = append(xs, p.Metrics.AcceptedTraffic)
			ys = append(ys, p.Metrics.AvgLatency)
		}
		chart.Add(plot.Series{Label: label, X: xs, Y: ys})
	}
	addSeries(r.OP, "OP")
	for i, s := range r.Randoms {
		if i >= 3 {
			break
		}
		addSeries(s, fmt.Sprintf("%d:%s", i+1, s.Mapping.Label))
	}
	out, err := chart.Render()
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(out)
	return nil
}

func fig2(sc experiments.Scale) error {
	header("Figure 2: 4-cluster partition, 16-switch network")
	r, err := experiments.Fig2(sc.RandomMappings)
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	return nil
}

func fig3(sc experiments.Scale) (*experiments.SimResult, error) {
	header("Figure 3: simulation results, 16-switch network")
	r, err := experiments.Fig3(sc)
	if err != nil {
		return nil, err
	}
	fmt.Print(r.Table())
	if err := plotSim(r); err != nil {
		return nil, err
	}
	return r, nil
}

func fig4(sc experiments.Scale) error {
	header("Figure 4: partition of the designed 24-switch rings network")
	r, err := experiments.Fig4(sc.RandomMappings)
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	return nil
}

func fig5(sc experiments.Scale) error {
	header("Figure 5: simulation results, 24-switch rings network")
	r, err := experiments.Fig5(sc)
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	return plotSim(r)
}

func fig6(sim *experiments.SimResult, sc experiments.Scale) error {
	header("Figure 6: correlation of Cc with network performance")
	var (
		r   *experiments.Fig6Result
		err error
	)
	if sim != nil {
		r, err = experiments.CorrelationFromSim(sim)
	} else {
		r, err = experiments.Fig6(sc)
	}
	if err != nil {
		return err
	}
	fmt.Print(r.Table())
	return nil
}

func claims(sc experiments.Scale) error {
	header("Claim: Tabu equals the exhaustive optimum on small networks")
	opt, err := experiments.TabuVsExhaustive(12, 500)
	if err != nil {
		return err
	}
	fmt.Print(opt.Table())

	header("Claim: Tabu matches or beats costlier heuristics")
	cmp, err := experiments.CompareHeuristics(16, 600)
	if err != nil {
		return err
	}
	fmt.Print(cmp.Table())

	header("Claim: Cc/performance correlation above 70% across networks")
	corr, err := experiments.CorrelationAcrossNetworks([]int{16, 20, 24}, sc)
	if err != nil {
		return err
	}
	fmt.Print(corr.Table())
	return nil
}
