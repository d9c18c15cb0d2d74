// Command crowdbench is CrowdMap's end-to-end benchmark. It generates a
// workload's inputs from a seed with the repo's simulator, runs crowdmapd
// as a subprocess exactly as it ships (only -addr, -data-dir and
// -interval are set), drives it through its public HTTP API, checks the
// served plans and locate answers against the simulator's ground truth,
// and prints one JSON line of metrics. See README.md.
//
// Usage (normally through run.sh, which builds both binaries first):
//
//	crowdbench -daemon BIN -workload grow|locate|mixed -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// scanInterval is the -interval the daemon runs with. The shipped
// default (30 s) would make every upload wait up to half a minute for
// its scan; one second keeps a run short while still showing the
// per-tick costs.
const scanInterval = time.Second

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// checkError is an output check that failed: the daemon served something
// the ground truth contradicts.
type checkError struct{ check, detail string }

func (e *checkError) Error() string { return "check " + e.check + " failed: " + e.detail }

func main() {
	var (
		workload = flag.String("workload", "", "grow | locate | mixed")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "timed-phase length the workload is sized for")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = flag.String("daemon", "", "crowdmapd binary")
		work     = flag.String("work", ".bench_run", "directory for run outputs (data dirs, logs, spans)")
		cache    = flag.String("cache", ".bench_cache", "directory for generated inputs")
	)
	flag.Parse()
	if _, ok := workloadPlans[*workload]; !ok || *bin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: crowdbench -daemon BIN -workload grow|locate|mixed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r, err := newRun(*bin, *work, *cache, *workload, *seed, *seconds, *trace == 1)
	if err == nil {
		err = r.execute()
	}
	var ce *checkError
	if err != nil && !errors.As(err, &ce) {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
		os.Exit(1)
	}
	out := result{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", jerr)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crowdbench:", err)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// newRun prepares one run: its inputs (generated or cached, never timed)
// and a fresh working directory.
func newRun(bin, work, cache, workload string, seed int64, seconds int, traced bool) (*run, error) {
	bin, err := filepath.Abs(bin)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	genStart := time.Now()
	in, err := loadInputs(cache, workload, seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	// Generation leaves a large heap behind; collect it now so the
	// client's garbage collector does not compete with the daemon later.
	debug.FreeOSMemory()
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	hc := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	logf("%s seed %d: inputs sha256 %s (%d base, %d timed uploads, %d queries; ready in %.1fs)",
		workload, seed, in.digest(), len(in.Base), len(in.Timed), len(in.Queries), time.Since(genStart).Seconds())
	r := &run{
		bin: bin, dir: dir, workload: workload, seconds: seconds, traced: traced,
		in: in, hc: hc, clients: min(2, conns), metrics: map[string]metric{},
		served: map[string]map[uint64]bool{}, latest: map[string]servedPlan{},
	}
	for _, q := range in.Queries {
		r.bodies = append(r.bodies, locateBody(q))
	}
	r.spans.on = traced
	return r, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "crowdbench: "+format+"\n", args...)
}

// finite guards every reported value: a metric that could not be
// measured is an error, never a silent NaN or zero.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s could not be measured", name)
	}
	return nil
}
