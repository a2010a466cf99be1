// Command benchgrid is the repository benchmark. It times the experiment
// grids that reach users, the way `pccsim -exp <grid>` runs them, and
// reports per-layer counters and host-time spans from a separate traced run.
//
// Run it from the repository root:
//
//	bash benchgrid/run.sh --workload fig5-graph --seed 1 --seconds 35 --trace 0
//
// Every grid runs in a fresh child process, as a user's pccsim does, so the
// trace cache starts empty each time. The parent runs children until the
// --seconds window closes and reports the medians, with times rescaled to a
// reference host speed measured between children (see calib.go). Each
// child's rendered report is hashed and compared with the digest recorded in
// digests.json for the seed; for a seed with no recorded digest the parent
// first runs the grid once with the invariant auditor armed and uses its
// digest. The last line of standard output is the JSON result; the lines
// before it print every metric with its unit, median, quartiles and sample
// count, beside the host fingerprint.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pccsim/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// minGridRuns is the fewest timed grids a run measures, however long they take.
const minGridRuns = 3

// runBudget bounds a whole benchmark run, children included, below the
// three minutes a run may take; children still running then are killed.
const runBudget = 170 * time.Second

// reference is the expected outcome of one workload's grid at one seed.
type reference struct {
	Digest   string  `json:"digest"`
	Accesses float64 `json:"accesses"`
}

//go:embed digests.json
var digestsJSON []byte

// digestsFile is digests.json's path relative to the repository root.
const digestsFile = "benchgrid/digests.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgrid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "grid to run: fig5-graph, figfrag or figtenant")
	seed := fs.Int64("seed", 1, "Options.Seed of the grid (fragmentation placement, pressure and lifecycle draws)")
	seconds := fs.Int("seconds", 35, "length of the measurement window")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = timed runs reporting the end-to-end metrics")
	outdir := fs.String("outdir", ".bench_build", "directory for result files and span dumps")
	child := fs.String("child", "", "run one grid in this process and report it as JSON: grid, audit or trace")
	spansOut := fs.String("spans", "", "with -child trace: file to write the subset's spans to")
	record := fs.String("record", "", "rewrite "+digestsFile+" with audited digests for seeds lo-hi of every workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordDigests(*record, stderr); err != nil {
			fmt.Fprintln(stderr, "benchgrid:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && (*traceFlag < 0 || *traceFlag > 1 || *seconds < 1) {
		err = errors.New("-trace must be 0 or 1 and -seconds at least 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchgrid:", err)
		return 2
	}
	if *child != "" {
		return runChild(w, *seed, *child, *spansOut, stdout, stderr)
	}
	return runParent(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *outdir, stdout, stderr)
}

// runChild runs one grid in this process and prints its report.
func runChild(w workload, seed int64, mode, spansOut string, stdout, stderr io.Writer) int {
	var rep gridReport
	switch mode {
	case "grid":
		rep, _ = runGrid(w, seed, false, nil)
	case "audit":
		rep, _ = runGrid(w, seed, true, obs.NewRegistry())
	case "trace":
		var names []string
		var spans []span
		rep, names, spans = runTraced(w, seed)
		if err := writeJSON(spansOut, map[string]any{"cells": names, "spans": spans}); err != nil {
			fmt.Fprintln(stderr, "benchgrid:", err)
			return 1
		}
	default:
		fmt.Fprintf(stderr, "benchgrid: unknown -child mode %q\n", mode)
		return 2
	}
	if err := json.NewEncoder(stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// spawn runs one child process and decodes its report.
func spawn(ctx context.Context, stderr io.Writer, args ...string) (gridReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return gridReport{}, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	// The child dies with the parent, so a killed run leaves no grid behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return gridReport{}, fmt.Errorf("child %v: %w", args, err)
	}
	var rep gridReport
	if err := json.Unmarshal(bytes.TrimSpace(out), &rep); err != nil {
		return gridReport{}, fmt.Errorf("child %v: bad report: %w", args, err)
	}
	return rep, nil
}

func loadDigests() (map[string]map[string]reference, error) {
	refs := map[string]map[string]reference{}
	if err := json.Unmarshal(digestsJSON, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", digestsFile, err)
	}
	return refs, nil
}

// result is everything one benchmark run reports.
type result struct {
	Host      host                 `json:"host"`
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     bool                 `json:"trace"`
	Reference string               `json:"reference"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Samples   map[string][]float64 `json:"samples"`
}

func runParent(w workload, seed int64, window time.Duration, traced bool, outdir string,
	stdout, stderr io.Writer) int {
	refs, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "benchgrid:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	seedArg := strconv.FormatInt(seed, 10)
	childArgs := func(mode string, extra ...string) []string {
		return append([]string{"-workload", w.name, "-seed", seedArg, "-child", mode}, extra...)
	}
	res := result{Host: fingerprint(), Workload: w.name, Seed: seed, Trace: traced,
		Samples: map[string][]float64{}}
	fail := func(n int, msg string) {
		res.Failed += n
		res.Errors = append(res.Errors, msg)
		fmt.Fprintln(stderr, "benchgrid: FAIL:", msg)
	}

	ref, ok := refs[w.name][seedArg]
	res.Reference = "digest recorded in " + digestsFile
	if !ok {
		res.Reference = "digest of a grid run with Options.Audit armed"
		res.Attempted++
		rep, err := spawn(ctx, stderr, childArgs("audit")...)
		switch {
		case err != nil:
			fail(1, err.Error())
		case rep.Error != "":
			fail(1, "audited grid: "+rep.Error)
		default:
			ref = reference{Digest: rep.Digest, Accesses: rep.Accesses}
		}
	}

	minRuns := minGridRuns
	if traced {
		minRuns = 1
	}
	// Timed runs measure the host's speed before the first child and after
	// every child (see calib.go).
	var cal *calibrator
	if !traced {
		cal = newCalibrator(runtime.NumCPU())
		res.Samples["calib_s"] = []float64{cal.measure()}
	}
	// Start another child only while a typical one still ends inside the
	// window, so that a run measures for about the window's length.
	start := time.Now()
	var stepS []float64
	for n := 0; ; n++ {
		_, typical, _ := quartiles(stepS)
		if ctx.Err() != nil || n >= minRuns && time.Since(start)+time.Duration(typical*float64(time.Second)) > window {
			break
		}
		args := childArgs("grid")
		if traced {
			args = childArgs("trace", "-spans",
				filepath.Join(outdir, "spans", fmt.Sprintf("%s-seed%s-%d.json", w.name, seedArg, n)))
		}
		t := time.Now()
		rep, err := spawn(ctx, stderr, args...)
		if cal != nil {
			res.Samples["calib_s"] = append(res.Samples["calib_s"], cal.measure())
		}
		stepS = append(stepS, time.Since(t).Seconds())
		if err != nil {
			res.Attempted++
			fail(1, err.Error())
			continue
		}
		// A trace child counts its own attempts and failures: the grid plus
		// one traced-versus-untraced comparison per subset cell.
		res.Attempted += max(rep.Attempted, 1)
		failures, msg := rep.Failed, rep.Error
		switch {
		case rep.Digest == "":
			failures = max(failures, 1)
		case rep.Digest != ref.Digest:
			failures++
			msg += fmt.Sprintf("grid digest %s, want %q", rep.Digest, ref.Digest)
		}
		if failures > 0 {
			fail(failures, msg)
			continue
		}
		if traced {
			for k, v := range rep.Layers {
				res.Samples[k] = append(res.Samples[k], v)
			}
			continue
		}
		res.Samples["raw_wall_s"] = append(res.Samples["raw_wall_s"], rep.WallS)
		res.Samples["raw_setup_s"] = append(res.Samples["raw_setup_s"], rep.SetupS)
		res.Samples["peak_rss_mb"] = append(res.Samples["peak_rss_mb"], rep.PeakRSSK/1024)
	}
	// One scale per run: the host's speed drifts over tens of seconds, more
	// slowly than a run lasts, and the median kernel time is steadier than
	// any single one.
	_, calS, _ := quartiles(res.Samples["calib_s"])
	for i, raw := range res.Samples["raw_wall_s"] {
		wall := raw * refCalibS / calS
		res.Samples["wall_s"] = append(res.Samples["wall_s"], wall)
		res.Samples["setup_s"] = append(res.Samples["setup_s"], res.Samples["raw_setup_s"][i]*refCalibS/calS)
		res.Samples["maccess_per_s"] = append(res.Samples["maccess_per_s"], ref.Accesses/wall/1e6)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
		res.Samples["experiments.fail_frac"] = []float64{float64(res.Failed) / float64(res.Attempted)}
	}
	metrics := map[string]any{}
	fmt.Fprintf(stdout, "benchgrid %s seed=%d trace=%v: %d attempted, %d failed; reference: %s\n",
		w.name, seed, traced, res.Attempted, res.Failed, res.Reference)
	fmt.Fprintf(stdout, "host: %s\n", res.Host)
	fmt.Fprintf(stdout, "%-36s %-10s %14s %14s %14s %3s  %s\n", "metric", "unit", "median", "q1", "q3", "n", "moves")
	for _, d := range defs {
		xs := res.Samples[d.name]
		if len(xs) == 0 {
			fmt.Fprintf(stderr, "benchgrid: no successful run measured %s\n", d.name)
			return 1
		}
		q1, med, q3 := quartiles(xs)
		moves := ""
		if d.moves != "" {
			moves = d.moves + " on " + d.on
		}
		fmt.Fprintf(stdout, "%-36s %-10s %14.6g %14.6g %14.6g %3d  %s\n", d.name, d.unit, med, q1, q3, len(xs), moves)
		metrics[d.name] = map[string]any{"value": med, "unit": d.unit}
	}
	kind := "traced"
	if !traced {
		kind = "timed"
		_, raw, _ := quartiles(res.Samples["raw_wall_s"])
		_, rawSetup, _ := quartiles(res.Samples["raw_setup_s"])
		fmt.Fprintf(stdout, "times above are rescaled to the reference host speed; unscaled medians: wall_s %.6g s, setup_s %.6g s; calibration kernel %.6g s (reference %g s)\n",
			raw, rawSetup, calS, refCalibS)
	}
	resultPath := filepath.Join(outdir, "results", fmt.Sprintf("%s-seed%s-%s.json", w.name, seedArg, kind))
	if err := writeJSON(resultPath, res); err != nil {
		fmt.Fprintln(stderr, "benchgrid:", err)
		return 1
	}
	fmt.Fprintf(stdout, "(samples and host written to %s)\n", resultPath)
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchgrid:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// recordDigests runs every workload's grid with the auditor armed at each
// seed of the range "lo-hi" and rewrites digests.json with the outcomes.
func recordDigests(seeds string, stderr io.Writer) error {
	lo, hi, ok := strings.Cut(seeds, "-")
	from, err1 := strconv.ParseInt(lo, 10, 64)
	to, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || from > to {
		return fmt.Errorf("-record wants a seed range lo-hi, got %q", seeds)
	}
	refs := map[string]map[string]reference{}
	for _, w := range benchWorkloads {
		refs[w.name] = map[string]reference{}
		for seed := from; seed <= to; seed++ {
			s := strconv.FormatInt(seed, 10)
			rep, err := spawn(context.Background(), stderr, "-workload", w.name, "-seed", s, "-child", "audit")
			if err == nil && rep.Error != "" {
				err = errors.New(rep.Error)
			}
			if err != nil {
				return fmt.Errorf("%s seed %s: %w", w.name, s, err)
			}
			refs[w.name][s] = reference{Digest: rep.Digest, Accesses: rep.Accesses}
			fmt.Fprintf(stderr, "%s seed %s: %s\n", w.name, s, rep.Digest)
		}
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestsFile, append(data, '\n'), 0o644)
}

// writeJSON writes v to path, creating its directory.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quartiles returns the first quartile, median and third quartile of xs,
// by the method of Python's statistics.quantiles(xs, n=4); all are 0 for no
// samples.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}
