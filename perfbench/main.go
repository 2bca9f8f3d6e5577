// Command perfbench is duet's end-to-end benchmark. It builds the system
// through its public functions, drives one named workload from a seed, checks
// the program's outputs, and prints one JSON result line: the end-to-end
// metrics, or with -trace 1 the per-layer metrics of a traced run of the same
// workload. See README.md for the workloads, metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

var stderr = os.Stderr

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string    // directory for span dumps ("" disables)
	start    time.Time // process start, the origin of set-up time
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   map[string]metric
	msgs      []string
}

func (r *result) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// perLayer lists every per-layer metric and its unit. A traced run reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"packet.parse_ns", "ns"},
	{"bgp.pick_ns", "ns"},
	{"hmux.process_ns", "ns"},
	{"hmux.allocs_per_op", "1/op"},
	{"nmux.process_ns", "ns"},
	{"smux.process_ns", "ns"},
	{"smux.allocs_per_op", "1/op"},
	{"hostagent.receive_ns", "ns"},
	{"hostagent.allocs_per_op", "1/op"},
	{"core.deliver_ns", "ns"},
	{"core.residual_ns", "ns"},
	{"telemetry.events_per_pkt", "1/pkt"},
	{"runtime.alloc_bytes_per_pkt", "B/pkt"},
	{"runtime.gc_per_mpkt", "1/Mpkt"},
	{"smux.conn_entries", "count"},
	{"smux.conn_bytes", "B"},
	{"steer.overlay_entries", "count"},
	{"assign.compute_ms", "ms"},
	{"assign.rescanned", "count"},
	{"controller.apply_ms", "ms"},
	{"controller.moved", "count"},
	{"core.snapshots_per_epoch", "1/epoch"},
	{"setup.generate_s", "s"},
	{"setup.sync_s", "s"},
	{"setup.first_epoch_s", "s"},
	{"core.snapshots_setup", "count"},
	{"wire.user_us_per_pkt", "us/pkt"},
	{"wire.sys_us_per_pkt", "us/pkt"},
	{"wire.ctxsw_per_pkt", "1/pkt"},
	{"wire.handler_ns", "ns"},
	{"wire.residual_ns", "ns"},
	{"wire.delta_pushes_per_epoch", "1/epoch"},
	{"wire.full_pushes", "count"},
	{"wire.backlog_drops", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// fillPerLayer adds every per-layer metric the run did not measure as 0.
func fillPerLayer(r *result) {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.add(m.name, m.unit, 0)
		}
	}
}

func spanPath(opt options) string {
	return filepath.Join(opt.out, fmt.Sprintf("spans-%s.jsonl", opt.workload))
}

func main() {
	opt := options{start: time.Now()}
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: hw-steady, smux-churn or wire-loopback")
	flag.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&opt.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&opt.out, "out", ".bench_out", "directory the traced run writes its spans to")
	flag.Parse()
	opt.trace = trace == 1
	if opt.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}

	var res *result
	var err error
	switch opt.workload {
	case hwSteady.name:
		res, err = runInproc(hwSteady, opt)
	case smuxChurn.name:
		res, err = runInproc(smuxChurn, opt)
	case "wire-loopback":
		res, err = runWire(opt)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opt.workload)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	if opt.trace {
		fillPerLayer(res)
	}
	for _, m := range res.msgs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", m)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.correct || res.failed > 0 {
		os.Exit(1)
	}
}
