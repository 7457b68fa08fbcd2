package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the last line a run prints on stdout.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newOutput(s summary) output {
	return output{Correct: true, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
}

func (o *output) set(name, unit string, v float64) { o.Metrics[name] = metric{Value: v, Unit: unit} }

const usage = `perfbench: the repository's end-to-end benchmark (see doc.go).

  bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bash perfbench/run.sh --steady <runs> [--seed <first>] [--seconds <s>]

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced replay. --steady runs each workload of BENCHMARK.json <runs>
times, interleaved, each with its own seed, and prints each end-to-end
metric's median, quartiles and spread.

Workloads:
`

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		for _, w := range append(workloads, byNameOnly...) {
			fmt.Fprintf(stderr, "  %-13s %s\n", w.name, w.why)
		}
	}
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed (the first seed with --steady)")
	seconds := fs.Int("seconds", 50, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	steady := fs.Int("steady", 0, "steadiness mode: runs per workload")
	setupOnly := fs.Bool("setup-only", false, "set the workload up once and print the time it took (used by --trace 0)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 2 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 2")
		return 2
	}
	fmt.Fprintf(stderr, "host: nproc=%d GOMAXPROCS=%d %s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if *steady > 0 {
		return steadiness(*steady, *seed, *seconds, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	if *setupOnly {
		start := time.Now()
		e, err := w.setup(*seed, *seconds)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
		d := time.Since(start)
		e.close()
		fmt.Fprintln(stdout, d.Seconds())
		return 0
	}
	var out output
	var err error
	switch *trace {
	case 0:
		out, err = runE2E(w, *seed, *seconds, stderr)
	case 1:
		out, err = runTraced(w, *seed, *seconds, stderr)
	default:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if out.Metrics == nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.Correct = err == nil
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
		return 1
	}
	return 0
}

// steadiness runs each benchmark workload `runs` times as separate
// processes, interleaved and rotating the order each round, with seeds
// first, first+1, ..., and prints each end-to-end metric's median, quartiles,
// interquartile spread and full range as shares of the median.
func steadiness(runs int, first int64, seconds int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < runs; r++ {
		seed := first + int64(r)
		for i := range workloads {
			w := workloads[(i+r)%len(workloads)]
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			var logs bytes.Buffer
			cmd.Stderr = &logs
			raw, err := cmd.Output()
			var out output
			if err == nil {
				err = json.Unmarshal(lastLine(raw), &out)
			}
			if err != nil || !out.Correct {
				fmt.Fprintf(stderr, "perfbench: %s seed %d failed: %v\n%s", w.name, seed, err, logs.String())
				return 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for k, m := range out.Metrics {
				values[w.name][k] = append(values[w.name][k], m.Value)
				units[k] = m.Unit
			}
			fmt.Fprintf(stderr, "round %d %s seed %d: %s\n", r+1, w.name, seed, lastLine(raw))
		}
	}
	fmt.Fprintf(stdout, "host: nproc=%d GOMAXPROCS=%d %s; %d runs per workload of %d s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runs, seconds)
	fmt.Fprintf(stdout, "%-13s %-19s %6s %12s %12s %12s %8s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, w := range workloads {
		var names []string
		for k := range values[w.name] {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := values[w.name][k]
			q1, med, q3 := quartiles(v)
			lo, hi := minMax(v)
			fmt.Fprintf(stdout, "%-13s %-19s %6s %12.5g %12.5g %12.5g %8.4f %8.4f\n",
				w.name, k, units[k], med, q1, q3, share(q3-q1, med), share(hi-lo, med))
		}
	}
	return 0
}

// childSetup sets the named workload up once in a fresh child process and
// returns the time the set-up took, in seconds.
func childSetup(name string, seed int64, seconds int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "--setup-only", "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds))
	var logs bytes.Buffer
	cmd.Stderr = &logs
	raw, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("%w\n%s", err, logs.String())
	}
	return strconv.ParseFloat(string(lastLine(raw)), 64)
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles default).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		pos := float64(j) * float64(n+1) / 4
		k := int(math.Floor(pos))
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*(pos-float64(k))
	}
	return at(1), at(2), at(3)
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func share(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return []byte(last)
}
