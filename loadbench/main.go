// Command loadbench is the go-ccts benchmark. It launches the real
// ccserved binary, drives it over loopback TCP from closed-loop callers
// (each waits for its schema set before sending the next request),
// checks every response, and prints the end-to-end metrics — or, with
// -trace 1, replays the same seeded inputs in-process through each
// layer's public entry points and prints per-layer metrics.
//
// Run it through run.sh, which builds ccserved and this program first:
//
//	bash loadbench/run.sh --workload gen-hit --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. NOTES.md explains the
// workloads, the metrics and what is deliberately not measured.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is the parsed command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	ccserved string
	golden   string
	workdir  string
}

// bench is a workload with its inputs rendered from the seed.
type bench interface {
	// setUp launches fresh nodes whose data lives under dir and seeds
	// them. Everything it does counts toward setup_s.
	setUp(dir string) (deployment, error)
	// replay runs the timed-phase operations in-process through each
	// layer's public entry point under t, then through an untraced
	// server.Handler; dir is for scratch data.
	replay(t *tracer, dir string) (*replayOut, error)
}

// deployment is one seeded set-up of a workload, ready for traffic.
type deployment interface {
	nodes() []*node
	// dials counts TCP connections the deployment's client opened.
	dials() int64
	// op runs timed-phase operation i on caller w and checks its output.
	op(w, i int) outcome
	// verify compares every node's counter deltas over the timed phase
	// (in nodes() order) with the operations the phase sent.
	verify(deltas []metricSet, p phase) []string
	// outputs digests the deterministic responses seen during set-up.
	outputs() digests
	// setupProblems lists output checks that failed during set-up.
	setupProblems() problems
	close()
}

// workload names a traffic mix; NOTES.md has the long form of why.
type workload struct {
	name    string
	prepare func(*config) (bench, error)
}

var workloads = []workload{
	{"gen-hit", func(c *config) (bench, error) { return prepareGen(c, false) }},
	{"gen-miss", func(c *config) (bench, error) { return prepareGen(c, true) }},
	{"repo-mix", func(c *config) (bench, error) { return prepareRepo(c, false) }},
	{"shard-proxy", func(c *config) (bench, error) { return prepareRepo(c, true) }},
}

const (
	// setups is how many times an untraced run sets the workload up
	// from scratch; setup_s is their median and the last one serves
	// the timed phase.
	setups = 3
	// warmup is traffic sent after set-up and before the clock starts;
	// it is checked but not sampled.
	warmup = time.Second
	// windowLen is the length of the slices of the timed phase; host
	// steal is read, and windows are kept or dropped, one at a time.
	windowLen = time.Second
	// stealLimit: a window during which the hypervisor stole this share
	// of the host's CPU time or more measured the neighbours as much as
	// ccserved. Such windows are dropped while a third of the windows
	// remain; a run reports how many of the windows it used were so.
	stealLimit = 0.03
	// watchdog bounds a whole run; every child process is reaped when
	// it fires.
	watchdog = 170 * time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: gen-hit, gen-miss, repo-mix or shard-proxy")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is rendered from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced in-process replay")
	fs.StringVar(&cfg.ccserved, "ccserved", "", "ccserved binary")
	fs.StringVar(&cfg.golden, "golden", "testdata/golden", "directory of reference outputs")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/runs", "directory for per-run data")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	if cfg.ccserved == "" {
		return nil, fmt.Errorf("-ccserved is required")
	}
	if findWorkload(cfg.workload) == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, fmt.Errorf("unknown -workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	return cfg, nil
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 2
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		reapAll()
		os.Exit(130)
	}()
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "loadbench: run exceeded %v; stopping\n", watchdog)
		reapAll()
		os.Exit(3)
	})
	defer timer.Stop()
	defer reapAll()

	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	cfg       *config
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string // human-readable lines printed before the JSON
	problems  problems
}

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "loadbench workload=%s seed=%d seconds=%d trace=%t callers=%d (closed loop, one keep-alive connection each)\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, connections)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(w, string(out))
}

// e2e is the record of the measured traffic of one run.
type e2e struct {
	timed   phase
	deltas  []metricSet
	after   []metricSet // the closing scrape of every node
	cpu     time.Duration
	rss     int64
	setupS  []float64
	outputs digests
	// clientCPU is this process's own CPU over the timed phase: the
	// client's share of the host.
	clientCPU time.Duration
	// windows slices the timed phase into one-second windows.
	windows []window
	// steal is the share of host CPU time stolen by the hypervisor
	// during the timed phase (from /proc/stat).
	steal float64
}

// measure sets the workload up, drives it, checks it and fills in the
// result.
func measure(cfg *config) (*result, error) {
	w := findWorkload(cfg.workload)
	// Inputs are rendered before any set-up clock starts.
	renderStart := time.Now()
	b, err := w.prepare(cfg)
	if err != nil {
		return nil, fmt.Errorf("rendering inputs: %w", err)
	}
	renderS := time.Since(renderStart).Seconds()
	runDir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &result{cfg: cfg, metrics: map[string]metric{}}
	res.note("inputs rendered in %.2f s, before the set-up clock", renderS)

	n := setups
	if cfg.trace {
		n = 1
	}
	rec, dep, err := drive(b, runDir, n, time.Duration(cfg.seconds)*time.Second, res)
	if err != nil {
		return nil, err
	}
	dep.close()

	res.attempted = len(rec.timed.samples)
	res.failed = rec.timed.failures()
	for _, e := range rec.timed.errs {
		res.problems.add("%v", e)
	}
	lat := rec.timed.lats(-1).sorted()
	ops := float64(len(rec.timed.samples))
	// The metrics are taken over the windows the hypervisor left alone:
	// contention on the shared host comes in bursts of several seconds.
	used := calmWindows(rec.windows, stealLimit)
	noisy := 0
	for _, w := range used {
		if w.steal >= stealLimit {
			noisy++
		}
	}
	if noisy > 0 {
		res.note("host busy: %d of the %d windows used had %.0f%% or more of the host's CPU stolen", noisy, len(used), 100*stealLimit)
	}
	var (
		usedOps int
		usedCPU time.Duration
		pooled  latencies
	)
	for _, w := range used {
		if w.ops == 0 {
			res.problems.add("a %v window of the timed phase completed no operation", windowLen)
		}
		usedOps += w.ops
		usedCPU += w.cpu
		pooled = append(pooled, w.lats...)
	}
	pooled = pooled.sorted()
	if b := beyond(len(pooled), 0.99); b < minTail {
		res.problems.add("p99 rests on %d samples beyond it; need %d (run longer)", b, minTail)
	}
	rps := float64(usedOps) / (float64(len(used)) * windowLen.Seconds())
	p50, p99 := ms(pooled.quantile(0.50)), ms(pooled.quantile(0.99))
	cpuPerOp := ms(usedCPU) / float64(max(usedOps, 1))
	rssMB := float64(rec.rss) / (1 << 20)
	setupS := median(rec.setupS)

	res.note("timed phase: %d operations in %.3f s over %d connections, %d failed; host CPU stolen %.1f%%; %d one-second windows, %d used",
		len(rec.timed.samples), rec.timed.elapsed.Seconds(), connections, res.failed, 100*rec.steal, len(rec.windows), len(used))
	res.note("throughput_rps %.1f 1/s (%d operations in the %d windows used; whole phase %.1f)", rps, usedOps, len(used), ops/rec.timed.elapsed.Seconds())
	res.note("p50_ms %.4f ms, p99_ms %.4f ms (over the %d samples of those windows, %d beyond p99; n=%d samples in all)", p50, p99, len(pooled), beyond(len(pooled), 0.99), len(lat))
	res.note("whole-phase latency p50 %.4f p90 %.4f p99 %.4f p99.9 %.4f max %.4f ms",
		ms(lat.quantile(0.5)), ms(lat.quantile(0.9)), ms(lat.quantile(0.99)), ms(lat.quantile(0.999)), ms(lat.quantile(1)))
	res.note("cpu_ms_per_op %.4f ms (ccserved user+sys over the windows used, %d node(s); whole phase %.2f s over %d ops)", cpuPerOp, len(rec.deltas), rec.cpu.Seconds(), len(rec.timed.samples))
	res.note("client CPU %.4f ms per op (loadbench itself, not part of cpu_ms_per_op)", ms(rec.clientCPU)/ops)
	res.note("peak_rss_mb %.1f MB (VmHWM summed over nodes)", rssMB)
	res.note("setup_s %.4f s (median of %v)", setupS, rec.setupS)
	fp := rec.outputs.fingerprint()
	res.note("set-up outputs fingerprint %s (equal for equal seeds)", fp)
	if err := checkFingerprint(cfg, fp); err != nil {
		res.problems.add("%v", err)
	}

	if cfg.trace {
		if err := traceLayers(cfg, b, runDir, rec, res); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	} else {
		res.set("throughput_rps", rps, "1/s")
		res.set("p50_ms", p50, "ms")
		res.set("p99_ms", p99, "ms")
		res.set("cpu_ms_per_op", cpuPerOp, "ms")
		res.set("peak_rss_mb", rssMB, "MB")
		res.set("setup_s", setupS, "s")
	}
	if hwm, err := vmHWM(os.Getpid()); err == nil {
		res.note("loadbench peak RSS %.0f MB", float64(hwm)/(1<<20))
	}
	res.correct = len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	return res, nil
}

// drive sets the workload up n times (keeping the last set-up), checks
// that every set-up served the same outputs, sends the warm-up traffic,
// then measures the timed phase.
func drive(b bench, runDir string, n int, timed time.Duration, res *result) (*e2e, deployment, error) {
	rec := &e2e{}
	var dep deployment
	for k := 0; k < n; k++ {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		d, err := b.setUp(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		rec.setupS = append(rec.setupS, time.Since(start).Seconds())
		res.problems = append(res.problems, d.setupProblems()...)
		if rec.outputs == nil {
			rec.outputs = d.outputs()
		} else if rec.outputs.compare(d.outputs(), &res.problems) == 0 {
			res.problems.add("set-up %d shares no outputs with set-up 0 to compare", k)
		}
		if k < n-1 {
			d.close()
			os.RemoveAll(dir)
			continue
		}
		dep = d
	}

	warm := runPhase(connections, 0, until(time.Now().Add(warmup)), dep.op)
	for _, e := range warm.errs {
		res.problems.add("warm-up: %v", e)
	}

	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	nodes := dep.nodes()
	before, err := scrapeAll(hc, nodes)
	if err != nil {
		dep.close()
		return nil, nil, err
	}
	cpu0, err := cpuAll(nodes)
	if err != nil {
		dep.close()
		return nil, nil, err
	}
	dials := dep.dials()
	self0 := selfCPU()
	steal0, total0 := hostTicks()
	origin := time.Now()
	marks := []mark{{cpu: cpu0, steal: steal0, total: total0}}
	var monErr error
	monitorDone := make(chan struct{})
	go func() {
		// Read CPU and host steal at every window boundary.
		defer close(monitorDone)
		for k := 1; k <= int(timed/windowLen); k++ {
			time.Sleep(time.Until(origin.Add(time.Duration(k) * windowLen)))
			c, err := cpuAll(nodes)
			if err != nil {
				monErr = err
				return
			}
			st, tot := hostTicks()
			marks = append(marks, mark{cpu: c, steal: st, total: tot})
		}
	}()
	rec.timed = runPhase(connections, warm.next, until(origin.Add(timed)), dep.op)
	<-monitorDone
	rec.clientCPU = selfCPU() - self0
	if monErr != nil {
		dep.close()
		return nil, nil, monErr
	}
	if last := marks[len(marks)-1]; last.total > total0 {
		rec.steal = float64(last.steal-steal0) / float64(last.total-total0)
	}
	rec.windows = windows(rec.timed.samples, origin, windowLen, marks)
	if d := dep.dials() - dials; d != 0 {
		res.problems.add("the timed phase opened %d new connections; the callers must reuse their keep-alive connections", d)
	}
	if d := dep.dials(); d > int64(connections) {
		res.problems.add("the client opened %d connections; want at most %d", d, connections)
	}
	cpu1, err := cpuAll(nodes)
	if err != nil {
		dep.close()
		return nil, nil, err
	}
	after, err := scrapeAll(hc, nodes)
	if err != nil {
		dep.close()
		return nil, nil, err
	}
	rec.cpu = cpu1 - cpu0
	rec.after = after
	for i := range nodes {
		rec.deltas = append(rec.deltas, delta(before[i], after[i]))
		hwm, err := nodes[i].peakRSS()
		if err != nil {
			dep.close()
			return nil, nil, err
		}
		rec.rss += hwm
	}
	res.problems = append(res.problems, dep.verify(rec.deltas, rec.timed)...)
	return rec, dep, nil
}

func scrapeAll(hc *http.Client, nodes []*node) ([]metricSet, error) {
	out := make([]metricSet, len(nodes))
	for i, n := range nodes {
		m, err := n.scrape(hc)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// checkFingerprint compares a run's set-up outputs with those of
// earlier runs of the same seed on the same ccserved and loadbench
// binaries, so output determinism is checked across runs as well as
// within one. The record lives beside the per-run directories and is
// keyed by both binaries' digest: a rebuilt program, or a benchmark
// that renders other inputs, starts a fresh record.
func checkFingerprint(cfg *config, fp string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	h := sha256.New()
	for _, path := range []string{cfg.ccserved, self} {
		bin, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write(bin)
	}
	sum := h.Sum(nil)
	dir := filepath.Join(cfg.workdir, "fingerprints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%x", cfg.workload, cfg.seed, sum[:8]))
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != fp {
			return fmt.Errorf("set-up outputs differ from an earlier run of seed %d on the same binary (%s, now %s)", cfg.seed, prev, fp)
		}
		return nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return os.WriteFile(path, []byte(fp), 0o644)
}

// hostTicks reads the stolen and total CPU ticks of the host from the
// first line of /proc/stat; zeros when unavailable.
func hostTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// selfCPU is the user+system CPU this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func cpuAll(nodes []*node) (time.Duration, error) {
	var sum time.Duration
	for _, n := range nodes {
		c, err := n.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}
