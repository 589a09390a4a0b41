// Command benchmark is the repository's end-to-end benchmark: five
// seeded campaign workloads, each run in its own child process with
// GOMAXPROCS pinned, measured for a fixed number of seconds, checked
// for correct outputs, and reported metric by metric. With -trace the
// same inputs also run through benchmark-side drivers that record a
// span per layer call, giving per-layer metrics and trace.json.
//
//	go run . [-seed N] [-workload NAME] [-seconds S] [-trace] [-scale F] [-json FILE]
//	go run . -compare A/*.json -- B/*.json
//
// See README.md for the workloads, the metrics and the protocol.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gomaxprocs is the pinned scheduler width: two shard goroutines on
// the two cores of the reference machine.
const gomaxprocs = 2

// childEnv marks a process started to run one workload.
const childEnv = "COMPDIFF_BENCH_CHILD"

type config struct {
	seed     int64
	workload string
	seconds  int
	trace    bool
	scale    float64
	jsonOut  string
	workdir  string
	root     string
}

// boolValue is a boolean flag that also takes the value as a separate
// word, as in "--trace 1".
type boolValue struct{ v *bool }

func (b boolValue) String() string {
	if b.v != nil && *b.v {
		return "1"
	}
	return "0"
}

func (b boolValue) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b.v = v
	return err
}

func (b boolValue) IsBoolFlag() bool { return true }

// joinBoolArgs rewrites "-trace 0|1" into "-trace=0|1", which the
// flag package needs for a boolean flag.
func joinBoolArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func parseFlags(args []string) (config, bool, []string, error) {
	var c config
	var compare bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.Int64Var(&c.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.StringVar(&c.workload, "workload", "", "run one workload (default: all)")
	fs.IntVar(&c.seconds, "seconds", 20, "measuring seconds per workload")
	fs.Var(boolValue{&c.trace}, "trace", "also run the traced drivers and report per-layer metrics")
	fs.Float64Var(&c.scale, "scale", 1, "multiply every workload size")
	fs.StringVar(&c.jsonOut, "json", "", "write every metric of every workload to this file")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "scratch directory for checkpoints and trace files")
	fs.BoolVar(&compare, "compare", false, "compare -json files: -compare A.json... -- B.json...")
	if err := fs.Parse(joinBoolArgs(args)); err != nil {
		return c, false, nil, err
	}
	if c.seconds < 1 || c.scale <= 0 {
		return c, false, nil, fmt.Errorf("-seconds must be >= 1 and -scale > 0")
	}
	if c.workload != "" {
		if _, ok := workloadByName(c.workload); !ok {
			return c, false, nil, fmt.Errorf("unknown workload %q", c.workload)
		}
	}
	return c, compare, fs.Args(), nil
}

func main() {
	cfg, compare, rest, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	switch {
	case compare:
		err = runCompare(os.Stdout, rest)
	case os.Getenv(childEnv) != "":
		err = childMain(cfg)
	default:
		err = parentMain(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is what a child reports for its workload.
type workloadResult struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Rounds     int                    `json:"rounds"`
	Probe      float64                `json:"probe_s"` // median machine-speed probe reading
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Checks     int                    `json:"checks"`
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Trace      string                 `json:"trace,omitempty"`
}

// report is the -json file layout.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Scale     float64                    `json:"scale"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
	order     []string
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resolveRoot finds the repository root, which holds testdata/golden:
// the working directory when run from the root, its parent when run
// from benchmark/.
func resolveRoot(c *config) error {
	for _, r := range []string{".", ".."} {
		if st, err := os.Stat(filepath.Join(r, "testdata", "golden")); err == nil && st.IsDir() {
			c.root = r
			return nil
		}
	}
	return errors.New("cannot find testdata/golden in . or ..: run from the repository root or benchmark/")
}

// parentMain runs every requested workload, prints every metric, and
// ends with the result line.
func parentMain(c config) error {
	rep, err := runAll(c, os.Stdout)
	if err != nil {
		return err
	}
	if c.jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(c.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line := contractLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range rep.order {
		res := rep.Workloads[name]
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, m := range allMetrics() {
			v, ok := res.Metrics[m.Name]
			if !ok || !m.Contract || m.Layer != c.trace {
				continue
			}
			key := m.Name
			if len(rep.order) > 1 {
				key = name + "/" + m.Name
			}
			line.Metrics[key] = v
		}
	}
	data, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !line.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

// runAll runs each workload in its own child process, so memory and
// GC state never carry from one workload to the next, and prints each
// workload's metrics to w as it finishes.
func runAll(c config, w io.Writer) (*report, error) {
	if err := resolveRoot(&c); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{Seed: c.seed, Seconds: c.seconds, Scale: c.scale, Trace: c.trace, Workloads: map[string]*workloadResult{}}
	for _, wl := range workloads {
		if c.workload == "" || c.workload == wl.name {
			rep.order = append(rep.order, wl.name)
		}
	}
	for _, name := range rep.order {
		res, err := runChildProcess(self, c, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads[name] = res
		printResult(w, res)
	}
	if c.trace {
		path, err := mergeTraces(c.workdir, rep.order, rep.Workloads)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %s\n", path)
	}
	return rep, nil
}

func childArgs(c config, name string) []string {
	return []string{"-workload", name, "-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.Itoa(c.seconds), "-trace=" + boolValue{&c.trace}.String(),
		"-scale", strconv.FormatFloat(c.scale, 'g', -1, 64), "-workdir", c.workdir}
}

// runChildProcess runs one workload in a child and reads the result
// from the last line of its standard output.
func runChildProcess(self string, c config, name string) (*workloadResult, error) {
	cmd := exec.Command(self, childArgs(c, name)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res workloadResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func printResult(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s  seed %d  GOMAXPROCS %d  rounds %d  probe %.4fs (scaled to %.4fs)  checks %d  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, r.GOMAXPROCS, r.Rounds, r.Probe, probeRef, r.Checks, r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", f)
	}
	for _, n := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[n]
		fmt.Fprintf(w, "   %-44s %16.6g %s\n", n, v.Value, v.Unit)
	}
}

// mergeTraces combines the children's trace files into trace.json.
func mergeTraces(dir string, names []string, res map[string]*workloadResult) (string, error) {
	merged := map[string]json.RawMessage{}
	for _, name := range names {
		path := res[name].Trace
		if path == "" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		merged[name] = data
		os.Remove(path)
	}
	data, err := json.Marshal(merged)
	if err != nil {
		return "", err
	}
	out := filepath.Join(dir, "trace.json")
	return out, os.WriteFile(out, data, 0o644)
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's ru_maxrss (KiB on Linux) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
