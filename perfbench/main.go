// Command perfbench is the repository's end-to-end benchmark of the key
// pipeline. It drives one workload through the public functions of the
// layers below, checks every output it gets back, and prints its
// metrics by name with their units. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 the run is repeated with spans recorded around every
// call into a layer, and the metrics are the per-layer ones.
//
// Usage (from the repository root, see run.sh):
//
//	bash perfbench/run.sh --workload link-paper --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload link-paper --seed 1 --seconds 25 --trace 1
//
// The workloads, the reasons they were chosen and the per-layer shares
// measured on them are described in WORKLOADS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"qkd/internal/workload"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// rounds, when positive, runs exactly this many rounds instead of
	// measuring for seconds: the workload size of the tests.
	rounds int
	// spanDir receives the traced run's spans; empty skips writing.
	spanDir string
	// corrupt flips one bit or byte of the first output before it is
	// checked, so tests can prove the checks fire.
	corrupt bool
}

// runner is one workload's closed loop under measurement. A round is a fixed
// amount of work whose inputs depend only on the seed and the round
// index, so its counts do not depend on timing.
type runner interface {
	// round runs the next round and checks its outputs.
	round() error
	// tally returns what the rounds so far have done.
	tally() *tally
	// summarize fills the tally's report, layers and detail once the
	// last round has run.
	summarize()
	// close stops every goroutine the workload started and waits for it.
	close()
}

// tally accumulates the outcome of the rounds a workload has run.
type tally struct {
	attempted, failed int64
	// checkErrs and opErrs hold the first few failed output checks and
	// failed operations.
	checkErrs, opErrs []string
	// bits is the workload's product delivered intact: secret key at
	// both link ends, user payload across the VPN, or relayed key in
	// both key delivery services.
	bits int64
	// lat holds one latency sample per operation, in seconds.
	lat []float64
	// counts are the timing-independent counts of the rounds, printed
	// so that two runs of one seed can be compared.
	counts map[string]int64
	// report holds the metrics under the names the workload's users know
	// them by, printed but not part of the JSON.
	report []metric
	// layers holds the per-layer metrics of a traced run, and detail
	// the per-call times behind them (printed, not in the JSON: they
	// are zero on the workloads that do not call the layer).
	layers, detail []metric
}

func newTally() *tally { return &tally{counts: map[string]int64{}} }

// fail records a failed output check: the program returned a wrong
// result. It fails the operation and the run.
func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if len(t.checkErrs) < 8 {
		t.checkErrs = append(t.checkErrs, fmt.Sprintf(format, args...))
	}
}

// failOp records an operation the program reported as failed: it
// counts against the run's failures but not its correctness.
func (t *tally) failOp(format string, args ...interface{}) {
	t.failed++
	if len(t.opErrs) < 8 {
		t.opErrs = append(t.opErrs, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

// builder constructs a workload for a seed; traced builds record spans
// into tr.
type builder func(o options, tr *tracer) (runner, error)

var workloads = map[string]struct {
	build builder
	why   string
}{
	"link-paper": {newLinkPaper, "authenticated distillation at the paper's 10 km, mu=0.1 point: per-frame work and auth dominate"},
	"link-dense": {newLinkDense, "unauthenticated distillation on the dense zero-loss link into KDS: per-batch work dominates"},
	"vpn-mixed":  {newVPNMixed, "8-tunnel AES/3DES/OTP VPN under DimDim traffic with repeated rollovers: ipsec, ike and kms work"},
	"relay-mesh": {newRelayMesh, "k=2 striped key transport over a 3-relay mesh with scheduled cuts: relay and qnet work"},
}

func main() {
	// One P. With more, the link engines' per-message handoffs and the
	// GC's background workers wake threads on other cores, and how fast
	// those wakeups land depends on what else the machine runs: on a
	// shared 2-core box the link and relay p99 moved by 40-70% between
	// runs at GOMAXPROCS=2, and by under 8% at 1.
	runtime.GOMAXPROCS(1)
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time per run")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	o.spanDir = ".bench_build/spans"
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
	// counts are the untraced run's timing-independent counts.
	counts map[string]int64
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is one measured pass over a workload.
type measured struct {
	t      *tally
	rounds int
	wall   time.Duration
	// heapLive is the median over round boundaries of the live heap the
	// last GC marked, in bytes: what the workload retains.
	heapLive float64
	// mallocs and gcPauseNs are the pass's heap allocations and GC
	// stop-the-world time.
	mallocs, gcPauseNs uint64
	// setups are the set-up times sampled during the pass, in seconds.
	setups []float64
}

// setupEvery is how much measured time passes between the builds a
// timed pass makes to sample setup_s.
const setupEvery = time.Second

// measure runs rounds until the time (or round count) is used up. When
// setup is not nil, it is called every setupEvery between rounds to time
// one more build of the workload. A traced pass folds its spans at every
// round boundary. The wall time leaves out the set-up samples and the
// span analysis.
func measure(w runner, o options, maxRounds int, tr *tracer, setup func() (time.Duration, error)) (measured, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	r := 0
	var heapLive, setups []float64
	var excluded time.Duration
	elapsed := func() time.Duration {
		d := time.Since(start) - excluded
		if tr != nil {
			d -= tr.analysis
		}
		return d
	}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for {
		if maxRounds > 0 && r >= maxRounds {
			break
		}
		if maxRounds <= 0 && r > 0 && elapsed() >= deadline {
			break
		}
		if err := w.round(); err != nil {
			return measured{}, fmt.Errorf("round %d: %w", r, err)
		}
		if tr != nil {
			tr.flush()
		}
		metrics.Read(live)
		heapLive = append(heapLive, float64(live[0].Value.Uint64()))
		r++
		if setup != nil && elapsed() >= time.Duration(len(setups)+1)*setupEvery {
			t0 := time.Now()
			d, err := setup()
			if err != nil {
				return measured{}, err
			}
			setups = append(setups, d.Seconds())
			excluded += time.Since(t0)
		}
	}
	wall := elapsed()
	runtime.ReadMemStats(&m1)
	w.summarize()
	sort.Float64s(heapLive)
	return measured{
		t: w.tally(), rounds: r, wall: wall, heapLive: workload.Quantile(heapLive, 0.5),
		mallocs: m1.Mallocs - m0.Mallocs, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
		setups: setups,
	}, nil
}

// endToEnd derives the end-to-end metrics of a measured pass: the
// product delivered per wall second, and the mean and p90 operation
// latency. A shared VM's speed switches between two levels about 1.5x
// apart for spells of a tenth of a second to minutes, with rarer slower
// spells. A median lands on one level or the other depending on the mix a
// run happens to get, while the mean moves in proportion to it; a p99, or
// a mean of the slowest tenth, is set by whether a slow spell fell in the
// run. The medians and p99s are printed beside them.
func endToEnd(m measured) (throughput, mean, p90 float64) {
	throughput = float64(m.t.bits) / 1000 / m.wall.Seconds()
	lat := append([]float64(nil), m.t.lat...)
	sort.Float64s(lat)
	var sum float64
	for _, x := range lat {
		sum += x
	}
	return throughput, ratio(sum, float64(len(lat))) * 1000, workload.Quantile(lat, 0.90) * 1000
}

func run(o options, stdout io.Writer) (*result, error) {
	build := workloads[o.workload].build
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n# why: %s\n",
		o.workload, o.seed, o.seconds, o.trace, workloads[o.workload].why)
	fmt.Fprintf(stdout, "# env go=%s GOMAXPROCS=%d nproc=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	t0 := time.Now()
	w, err := build(o, nil)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", o.workload, err)
	}
	first := time.Since(t0)

	// setup_s is sampled by building the workload again once a second
	// through the measured run, each time from a collected heap, so the
	// builds see the same spells of a shared machine's speed as the rounds
	// do rather than the one second before them. On a shared 2-core VM
	// whose speed switches between two levels ~1.5x apart for seconds at
	// a time, the median of 20 builds made in the second before the run
	// spread 0.28-0.34 (quartile distance over median, ten seeds) on
	// three of the four workloads.
	sample := func() (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		sw, err := build(o, nil)
		d := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("building %s: %w", o.workload, err)
		}
		sw.close()
		runtime.GC()
		return d, nil
	}
	maxRounds := o.rounds
	if o.trace {
		// The untraced half of a traced run measures for half the time;
		// the traced half then runs the same rounds.
		o.seconds /= 2
	}
	m, err := measure(w, o, maxRounds, nil, sample)
	w.close()
	if err != nil {
		return nil, err
	}
	setup := setupTime(first, m.setups)
	res := &result{Correct: true, Metrics: map[string]jsonMetric{}}
	t := m.t
	tput, mean, p90 := endToEnd(m)

	printCounts(stdout, "untraced", m)
	checks := []*tally{t}
	res.counts = t.counts
	res.Attempted, res.Failed = t.attempted, t.failed

	e2e := []metric{
		{"setup_s", setup, "s"},
		{"throughput_kbps", tput, "kbit/s"},
		{"op_ms_mean", mean, "ms"},
		{"op_ms_p90", p90, "ms"},
		{"heap_live_mb", m.heapLive / (1 << 20), "MB"},
	}
	fmt.Fprintf(stdout, "# size rounds=%d ops=%d wall_s=%.3f setups=%d\n", m.rounds, len(t.lat), m.wall.Seconds(), len(m.setups))
	for _, mt := range e2e {
		printMetric(stdout, "metric", mt)
	}
	printMetric(stdout, "metric", metric{"fail_ratio", ratio(float64(t.failed), float64(t.attempted)), "ratio"})
	printMetric(stdout, "metric", metric{"peak_rss_mb", peakRSSMB(), "MB"})
	// The throughput under the name the workload's users know it by.
	switch o.workload {
	case "vpn-mixed":
		printMetric(stdout, "metric", metric{"goodput_mbps", tput / 8000, "MB/s"})
	case "relay-mesh":
		printMetric(stdout, "metric", metric{"relay_kbps", tput, "kbit/s"})
	default:
		printMetric(stdout, "metric", metric{"key_kbps", tput, "kbit/s"})
	}
	for _, mt := range t.report {
		printMetric(stdout, "metric", mt)
	}

	if !o.trace {
		for _, mt := range e2e {
			res.Metrics[mt.name] = jsonMetric{mt.value, mt.unit}
		}
	} else {
		tr := newTracer()
		tw, err := build(o, tr)
		if err != nil {
			return nil, fmt.Errorf("building traced %s: %w", o.workload, err)
		}
		tr.start()
		tm, err := measure(tw, o, m.rounds, tr, nil)
		tw.close()
		if err != nil {
			return nil, fmt.Errorf("traced: %w", err)
		}
		printCounts(stdout, "traced", tm)
		checks = append(checks, tm.t)
		res.Attempted += tm.t.attempted
		res.Failed += tm.t.failed
		// Same seed, same rounds: the counts must agree exactly.
		for k, v := range t.counts {
			if tm.t.counts[k] != v {
				tm.t.fail("traced run count %s=%d, untraced %d", k, tm.t.counts[k], v)
			}
		}
		ttput, tmean, tp90 := endToEnd(tm)
		over := []metric{
			{"throughput_kbps", ttput - tput, "kbit/s"},
			{"op_ms_mean", tmean - mean, "ms"},
			{"op_ms_p90", tp90 - p90, "ms"},
		}
		for _, mt := range over {
			printMetric(stdout, "trace_overhead", mt)
		}
		// The spans are held in memory, so the traced half sets the peak.
		printMetric(stdout, "trace_overhead", metric{"peak_rss_mb", peakRSSMB(), "MB"})
		got := map[string]metric{}
		for _, mt := range tm.t.layers {
			got[mt.name] = mt
		}
		for _, mt := range tr.layerMetrics(tm.wall) {
			got[mt.name] = mt
		}
		// The runtime's counts come from the untraced half, which does not
		// pay for the spans.
		for _, mt := range []metric{
			{"trace.wall_overhead", tm.wall.Seconds()/m.wall.Seconds() - 1, "ratio"},
			{"runtime.allocs_per_op", ratio(float64(m.mallocs), float64(len(t.lat))), "count"},
			{"runtime.gc_pause_ms", float64(m.gcPauseNs) / 1e6, "ms"},
		} {
			got[mt.name] = mt
		}
		// Every workload reports every per-layer metric; a layer the
		// workload does not run reads zero.
		for _, pl := range perLayerMetrics() {
			mt, ok := got[pl.name]
			if !ok {
				mt = metric{pl.name, 0, pl.unit}
			} else if mt.unit != pl.unit {
				return nil, fmt.Errorf("per-layer metric %s has unit %s, want %s", pl.name, mt.unit, pl.unit)
			}
			printMetric(stdout, "layer", mt)
			res.Metrics[mt.name] = jsonMetric{mt.value, mt.unit}
		}
		for _, mt := range tm.t.detail {
			printMetric(stdout, "layer_detail", mt)
		}
		if o.spanDir != "" {
			path, err := tr.write(o.spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
			if err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
			fmt.Fprintf(stdout, "# spans %s\n", path)
		}
	}
	for _, c := range checks {
		for _, e := range c.opErrs {
			fmt.Fprintln(stdout, "# OPERATION FAILED:", e)
		}
		for _, e := range c.checkErrs {
			fmt.Fprintln(stdout, "# CHECK FAILED:", e)
		}
		if len(c.checkErrs) > 0 {
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(line))
	return res, nil
}

func printCounts(w io.Writer, label string, m measured) {
	keys := make([]string, 0, len(m.t.counts))
	for k := range m.t.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, m.t.counts[k])
	}
	fmt.Fprintf(w, "# counts %s rounds=%d%s\n", label, m.rounds, b.String())
}

func printMetric(w io.Writer, kind string, m metric) {
	fmt.Fprintf(w, "%s %s %.6g %s\n", kind, m.name, m.value, m.unit)
}

// setupTime is the median of the set-up times sampled during the run.
// The first build also pays for process-wide first use, so it counts
// only when the run was too short to sample any other.
func setupTime(first time.Duration, samples []float64) float64 {
	if len(samples) == 0 {
		return first.Seconds()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return workload.Quantile(s, 0.5)
}

// perLayerMetrics lists the per-layer metrics of a traced run, in the
// order of BENCHMARK.json: every span's share of wall time, then each
// layer's counts and ratios.
func perLayerMetrics() []metric {
	var out []metric
	for _, n := range spanNames {
		out = append(out, metric{n + ".share", 0, "ratio"})
	}
	for _, m := range []metric{
		{"photonics.clicks_per_frame", 0, "count"},
		{"sifting.bits_per_click", 0, "ratio"},
		{"cascade.msgs_per_batch", 0, "count"},
		{"cascade.disclosed_per_bit", 0, "ratio"},
		{"privacy.secret_per_sifted", 0, "ratio"},
		{"core.aborted_per_batch", 0, "ratio"},
		{"auth.pad_bits_per_batch", 0, "count"},
		{"kms.granted_bits.otp", 0, "count"},
		{"kms.granted_bits.rekey", 0, "count"},
		{"kms.shed.otp", 0, "count"},
		{"kms.shed.rekey", 0, "count"},
		{"kms.degraded", 0, "count"},
		{"ipsec.wire_per_payload", 0, "ratio"},
		{"ipsec.soft_rekeys", 0, "count"},
		{"ipsec.no_sa", 0, "count"},
		{"ipsec.expired", 0, "count"},
		{"ipsec.replay_drops", 0, "count"},
		{"ipsec.integ_failures", 0, "count"},
		{"ike.phase2_batches", 0, "count"},
		{"ike.sas_established", 0, "count"},
		{"ike.phase2_failed", 0, "count"},
		{"ike.backoffs", 0, "count"},
		{"ike.key_bits_per_payload_kb", 0, "ratio"},
		{"vpn.rekey_retries", 0, "count"},
		{"vpn.rekey_abandoned", 0, "count"},
		{"vpn.rollover_stalls", 0, "count"},
		{"qnet.failovers", 0, "count"},
		{"qnet.transports_failed", 0, "count"},
		{"qnet.pad_bits_per_key_bit", 0, "ratio"},
		{"keypool.link_pool_bits_max", 0, "count"},
		{"runtime.allocs_per_op", 0, "count"},
		{"runtime.gc_pause_ms", 0, "ms"},
		{"trace.wall_overhead", 0, "ratio"},
	} {
		out = append(out, m)
	}
	return out
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(line[len("VmHWM:"):]), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
