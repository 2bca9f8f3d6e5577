package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"duet/internal/assign"
	"duet/internal/bgp"
	"duet/internal/controller"
	"duet/internal/core"
	"duet/internal/ecmp"
	"duet/internal/hostagent"
	"duet/internal/nmux"
	"duet/internal/packet"
	"duet/internal/telemetry"
	"duet/internal/topology"
	"duet/internal/workload"
)

// Tier indices, in the order of the core.deliver.tier.* counters.
const (
	tierHMux = iota
	tierNMux
	tierSMux
	numTiers
)

var tierNames = [numTiers]string{"hmux", "nmux", "smux"}

// smuxNodeBase is the BGP next-hop offset core gives SMux routes (switches
// use their SwitchID). The ladder needs it to call the SMux the route picks.
const smuxNodeBase = bgp.NodeID(1 << 20)

// inproc is one in-process run: a core.Cluster driven by the controller,
// fed by a single closed-loop generator.
type inproc struct {
	spec inprocSpec
	opt  options
	rng  *rand.Rand // control-input stream (drift, DIP churn)

	w     *workload.Workload
	fs    *flowSet
	base  []float64 // epoch-0 rates; drift is relative to them
	c     *core.Cluster
	ct    *controller.Controller
	slot  int // workload rate slot of the current epoch
	chk   checker
	tr    *tracer
	layer *ladder

	// Benchmark-side view of the configuration, kept apart from the program.
	dips    [][]packet.Addr // VIP → backends the benchmark configured
	tierOf  []int8          // VIP → tier predicted from HomeOf/NMuxHosted
	flowDIP []packet.Addr   // flow → DIP it has been delivered to (0: none yet)

	tierCtr [numTiers]*telemetry.Counter
}

func runInproc(spec inprocSpec, opt options) (*result, error) {
	r := &inproc{spec: spec, opt: opt, rng: rand.New(rand.NewSource(opt.seed*7919 + 17))}
	if opt.trace {
		r.tr = newTracer(opt.start, 1<<18)
	}
	res := &result{}

	// --- set-up: generate ---------------------------------------------------
	ccfg := core.DefaultConfig()
	ccfg.NMuxTableSize = spec.nmuxTable
	topo, err := topology.New(ccfg.Topology)
	if err != nil {
		return nil, err
	}
	w, fs, err := generate(spec, topo, opt.seed)
	if err != nil {
		return nil, err
	}
	r.w, r.fs = w, fs
	r.base = append([]float64(nil), w.Rates[0]...)
	r.dips = make([][]packet.Addr, len(w.VIPs))
	r.tierOf = make([]int8, len(w.VIPs))
	r.flowDIP = make([]packet.Addr, len(fs.pkts))
	lat := newHist()
	var epochMS, computeMS, applyMS, rescanned, moved, snapsPerEpoch []float64
	r.layer = newLadder(opt.trace)
	genEnd := time.Now()
	r.tr.add(0, "setup.generate", -1, opt.start, genEnd)

	// The live-heap baseline is taken with the inputs already allocated;
	// its forced GC is not part of set-up.
	heapBefore := liveHeap()

	// --- set-up: VIP sync, first placement, warm-up ------------------------
	syncStart := time.Now()
	r.c, err = core.New(ccfg)
	if err != nil {
		return nil, err
	}
	opts := assign.DefaultOptions()
	opts.Seed = opt.seed
	if spec.maxHMuxVIPs > 0 {
		opts.MaxHMuxVIPs = spec.maxHMuxVIPs
	}
	opts.NMuxTableSize = spec.nmuxTable
	opts.HybridRatePPS = spec.hybridRate
	r.ct = controller.New(r.c, opts)
	if err := r.ct.SyncVIPs(w, spec.backends, nil); err != nil {
		return nil, err
	}
	for i := range w.VIPs {
		v, ok := r.c.VIP(w.VIPs[i].Addr)
		if !ok {
			return nil, fmt.Errorf("VIP %s not configured after sync", w.VIPs[i].Addr)
		}
		for _, b := range v.Backends {
			r.dips[i] = append(r.dips[i], b.Addr)
		}
	}
	syncEnd := time.Now()
	r.tr.add(0, "setup.sync", -1, syncStart, syncEnd)
	if _, err := r.ct.RunEpochDelta(w, 0); err != nil {
		return nil, fmt.Errorf("first epoch: %w", err)
	}
	firstEnd := time.Now()
	r.tr.add(0, "setup.first_epoch", -1, syncEnd, firstEnd)
	r.predictTiers()
	reg, rec := r.c.Telemetry()
	for t := range r.tierCtr {
		r.tierCtr[t] = reg.Counter("core.deliver.tier." + tierNames[t])
	}
	// Warm-up: one pass over every flow fills the connection and flow tables
	// and establishes each flow's DIP.
	for f := range fs.pkts {
		d, err := r.c.Deliver(fs.pkts[f])
		if err != nil {
			return nil, fmt.Errorf("warm-up delivery of flow %d: %w", f, err)
		}
		r.check(int32(f), &d)
	}
	setupEnd := time.Now()
	r.tr.add(0, "setup.warmup", -1, firstEnd, setupEnd)
	setupS := genEnd.Sub(opt.start).Seconds() + setupEnd.Sub(syncStart).Seconds()
	snapsSetup := r.c.Epoch()
	heapMB := float64(liveHeap()-heapBefore) / 1e6

	// --- measured rounds: one traffic slice, then one control epoch ---------
	var (
		delivered, attempted, failed uint64
		sliceTime                    time.Duration
		cursor                       int
		untraced                     procStat
		untracedPkts                 uint64
		untracedEvents               uint64
	)
	traceEvery := 0
	if opt.trace {
		traceEvery = 256 // one packet in 256 runs the ladder; the rest time Deliver alone
	}
	var lastRep controller.EpochReport
	deadline := time.Duration(opt.seconds) * time.Second
	measureStart := time.Now()
	p0 := readProc()
	for round := 0; ; round++ {
		var before, predicted [numTiers]uint64
		for t := range before {
			before[t] = r.tierCtr[t].Value()
		}
		ev0 := rec.Recorded()
		var s0 procStat
		if opt.trace {
			s0 = readProc()
		}
		sliceStart := time.Now()
		for k := 0; k < spec.slice; k++ {
			f := int32(cursor)
			if cursor++; cursor == len(fs.pkts) {
				cursor = 0
			}
			pkt := fs.pkts[f]
			if traceEvery > 0 && k%traceEvery == 0 {
				// Traced packets run after the untraced ones of this slice's
				// stride have been timed; they are excluded from the
				// untraced readings below.
				continue
			}
			t0 := time.Now()
			d, err := r.c.Deliver(pkt)
			el := time.Since(t0)
			attempted++
			if err != nil {
				failed++
				r.chk.fail("deliver flow %d: %v", f, err)
				continue
			}
			lat.Record(int64(el))
			delivered++
			predicted[r.tierOf[fs.vipOf[f]]]++
			r.check(f, &d)
		}
		sliceTime += time.Since(sliceStart)
		if opt.trace {
			untraced.add(s0.to(readProc()))
			untracedPkts += uint64(spec.slice - (spec.slice+traceEvery-1)/traceEvery)
			untracedEvents += rec.Recorded() - ev0
			// The traced stride: the same packets the loop above skipped.
			first := cursor - spec.slice
			for first < 0 {
				first += len(fs.pkts)
			}
			for k := 0; k < spec.slice; k += traceEvery {
				f := int32((first + k) % len(fs.pkts))
				attempted++
				d, err := r.layer.run(r, uint64(f), fs.pkts[f])
				if err != nil {
					failed++
					r.chk.fail("deliver flow %d: %v", f, err)
					continue
				}
				delivered++
				predicted[r.tierOf[fs.vipOf[f]]]++
				r.check(f, &d)
			}
		}
		r.checkTiers(before, predicted)

		if err := r.controlInputs(); err != nil {
			return nil, err
		}
		next := 1 - r.slot
		prev := r.ct.Previous()
		snap0 := r.c.Epoch()
		var computeDur time.Duration
		var epochSpan int32 = -1
		if opt.trace {
			epochSpan = r.tr.begin(uint64(round), "epoch", -1)
			cs := time.Now()
			a, err := assign.ComputeDelta(r.c.Net, w, next, prev, r.ct.Opts)
			computeDur = time.Since(cs)
			r.tr.add(uint64(round), "assign.compute", epochSpan, cs, cs.Add(computeDur))
			if err != nil {
				return nil, err
			}
			rescanned = append(rescanned, float64(a.Rescanned))
		}
		es := time.Now()
		rep, err := r.ct.RunEpochDelta(w, next)
		ed := time.Since(es)
		lastRep = rep
		attempted++
		if err != nil {
			failed++
			r.chk.fail("epoch %d: %v", round, err)
		}
		r.slot = next
		epochMS = append(epochMS, ed.Seconds()*1e3)
		if opt.trace {
			r.tr.add(uint64(round), "controller.run_epoch_delta", epochSpan, es, es.Add(ed))
			r.tr.end(epochSpan)
			computeMS = append(computeMS, computeDur.Seconds()*1e3)
			applyMS = append(applyMS, (ed-computeDur).Seconds()*1e3)
			moved = append(moved, float64(rep.Moved))
			snapsPerEpoch = append(snapsPerEpoch, float64(r.c.Epoch()-snap0))
		}
		if spec.checkFrom > 0 && round%spec.checkFrom == 0 {
			r.checkComputeFrom(prev, next)
		}
		r.predictTiers()
		if time.Since(measureStart) >= deadline {
			break
		}
	}
	total := p0.to(readProc())
	var served [numTiers]uint64
	for t := range served {
		served[t] = r.tierCtr[t].Value()
	}
	fmt.Fprintf(stderr, "perfbench: %s seed %d: %d rounds, %d packets; served hmux/nmux/smux %d/%d/%d (incl. warm-up); last epoch hmux %.2f nmux %.2f of rate, %d moved\n",
		spec.name, opt.seed, len(epochMS), delivered, served[0], served[1], served[2],
		lastRep.AssignedFraction, lastRep.NMuxFraction, lastRep.Moved)
	if r.tr != nil && r.tr.dropped > 0 {
		fmt.Fprintf(stderr, "perfbench: %d spans dropped (buffer full)\n", r.tr.dropped)
	}

	res.attempted, res.failed = attempted, failed
	res.correct = r.chk.ok()
	res.msgs = r.chk.msgs
	if delivered == 0 {
		return nil, errors.New("no packet delivered")
	}
	pkts := float64(delivered)
	if !opt.trace {
		res.add("pps", "1/s", pkts/sliceTime.Seconds())
		res.add("lat_us_p50", "us", lat.Quantile(0.50)/1e3)
		res.add("lat_us_p90", "us", lat.Quantile(0.90)/1e3)
		res.add("allocs_per_pkt", "1/pkt", float64(total.mallocs)/pkts)
		res.add("cpu_us_per_pkt", "us", (total.user+total.sys).Seconds()*1e6/pkts)
		res.add("epoch_ms_p50", "ms", median(epochMS))
		res.add("setup_s", "s", setupS)
		res.add("heap_mb", "MB", heapMB)
		return res, nil
	}

	// Traced run: the per-layer ladder.
	lad := r.layer
	lad.finish(r)
	res.add("packet.parse_ns", "ns", lad.median("packet.parse"))
	res.add("bgp.pick_ns", "ns", lad.median("bgp.pick"))
	res.add("hmux.process_ns", "ns", lad.median("hmux.process"))
	res.add("hmux.allocs_per_op", "1/op", lad.allocs[tierHMux])
	res.add("nmux.process_ns", "ns", lad.median("nmux.process"))
	res.add("smux.process_ns", "ns", lad.median("smux.process"))
	res.add("smux.allocs_per_op", "1/op", lad.allocs[tierSMux])
	res.add("hostagent.receive_ns", "ns", lad.median("hostagent.receive"))
	res.add("hostagent.allocs_per_op", "1/op", lad.agentAllocs)
	res.add("core.deliver_ns", "ns", lad.median("core.deliver"))
	res.add("core.residual_ns", "ns", lad.median("core.residual"))
	res.add("telemetry.events_per_pkt", "1/pkt", float64(untracedEvents)/float64(untracedPkts))
	res.add("runtime.alloc_bytes_per_pkt", "B/pkt", float64(untraced.allocBytes)/float64(untracedPkts))
	res.add("runtime.gc_per_mpkt", "1/Mpkt", float64(untraced.gcCycles)*1e6/float64(untracedPkts))
	var conns, connBytes, overlay float64
	for _, sm := range r.c.SMuxes {
		st := sm.ConnStats()
		conns += float64(st.Entries)
		connBytes += float64(st.Bytes)
		overlay += float64(st.Overlay)
	}
	res.add("smux.conn_entries", "count", conns)
	res.add("smux.conn_bytes", "B", connBytes)
	res.add("steer.overlay_entries", "count", overlay)
	res.add("assign.compute_ms", "ms", median(computeMS))
	res.add("assign.rescanned", "count", mean(rescanned))
	res.add("controller.apply_ms", "ms", median(applyMS))
	res.add("controller.moved", "count", mean(moved))
	res.add("core.snapshots_per_epoch", "1/epoch", mean(snapsPerEpoch))
	res.add("setup.generate_s", "s", genEnd.Sub(opt.start).Seconds())
	res.add("setup.sync_s", "s", syncEnd.Sub(syncStart).Seconds())
	res.add("setup.first_epoch_s", "s", firstEnd.Sub(syncEnd).Seconds())
	res.add("core.snapshots_setup", "count", float64(snapsSetup))
	untracedP50 := lat.Quantile(0.5)
	res.add("bench.trace_overhead_pct", "%", 100*(lad.median("core.deliver")-untracedP50)/untracedP50)
	return res, r.writeSpans()
}

func (r *inproc) writeSpans() error {
	if r.tr == nil || r.opt.out == "" {
		return nil
	}
	return r.tr.write(spanPath(r.opt))
}

// check runs the per-packet output checks on one delivery. It allocates
// nothing unless a check fails.
func (r *inproc) check(f int32, d *core.Delivery) {
	vi := r.fs.vipOf[f]
	if d.VIP != r.w.VIPs[vi].Addr {
		r.chk.fail("flow %d: delivered for VIP %s, sent to %s", f, d.VIP, r.w.VIPs[vi].Addr)
		return
	}
	if !hasAddr(r.dips[vi], d.DIP) {
		r.chk.fail("flow %d: DIP %s is not a configured backend of VIP %s", f, d.DIP, d.VIP)
		return
	}
	if !sameExceptDst(d.Packet, r.fs.pkts[f], d.DIP) {
		r.chk.fail("flow %d: delivered packet differs from the sent one beyond the DIP rewrite", f)
		return
	}
	switch prev := r.flowDIP[f]; {
	case prev == 0:
		r.flowDIP[f] = d.DIP
	case prev != d.DIP:
		r.chk.fail("flow %d of VIP %s moved from DIP %s to %s with its backend set unchanged (tier %s)",
			f, d.VIP, prev, d.DIP, tierNames[r.tierOf[vi]])
	}
}

func hasAddr(xs []packet.Addr, a packet.Addr) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// predictTiers records, from the cluster's public placement queries, the
// tier each VIP's packets must be served by until the next control change.
func (r *inproc) predictTiers() {
	for i := range r.w.VIPs {
		addr := r.w.VIPs[i].Addr
		switch {
		case r.homed(addr):
			r.tierOf[i] = tierHMux
		case r.c.NMuxHosted(addr):
			r.tierOf[i] = tierNMux
		default:
			r.tierOf[i] = tierSMux
		}
	}
}

func (r *inproc) homed(addr packet.Addr) bool {
	_, ok := r.c.HomeOf(addr)
	return ok
}

// checkTiers compares the core.deliver.tier.* counters over one slice with
// the benchmark's own delivered count and per-tier prediction.
func (r *inproc) checkTiers(before, predicted [numTiers]uint64) {
	var sum, want uint64
	for t := range before {
		got := r.tierCtr[t].Value() - before[t]
		sum += got
		want += predicted[t]
		if got != predicted[t] {
			r.chk.fail("tier %s served %d packets, predicted %d", tierNames[t], got, predicted[t])
		}
	}
	if sum != want {
		r.chk.fail("tier counters sum to %d, delivered %d", sum, want)
	}
}

// controlInputs prepares the next epoch: rate drift in the next rate slot,
// then DIP removals. DIPs are removed and never re-added: a re-added DIP
// lets a later mode flip move connections the SMux pinned before the
// addition (see README.md), so re-adds would fail the affinity check on
// some seeds and not others.
func (r *inproc) controlInputs() error {
	next := 1 - r.slot
	rates := r.w.Rates[next]
	copy(rates, r.w.Rates[r.slot])
	n := int(float64(len(rates))*r.spec.driftFrac + 0.5)
	if n < 1 {
		n = 1
	}
	if n >= len(rates) {
		for i := range rates {
			rates[i] = r.base[i] * (0.5 + r.rng.Float64())
		}
	} else {
		for k := 0; k < n; k++ {
			i := r.rng.Intn(len(rates))
			rates[i] = r.base[i] * (0.5 + r.rng.Float64())
		}
	}
	if r.spec.dipChurn <= 0 {
		return nil
	}
	k := int(float64(len(r.w.VIPs))*r.spec.dipChurn + 0.5)
	for tries := 0; k > 0 && tries < 8*len(r.w.VIPs); tries++ {
		vi := r.rng.Intn(len(r.w.VIPs))
		if len(r.dips[vi]) < 2 {
			continue
		}
		j := r.rng.Intn(len(r.dips[vi]))
		dip := r.dips[vi][j]
		if err := r.ct.RemoveDIP(r.w.VIPs[vi].Addr, dip); err != nil {
			return fmt.Errorf("remove DIP %s from %s: %w", dip, r.w.VIPs[vi].Addr, err)
		}
		r.dips[vi] = append(r.dips[vi][:j], r.dips[vi][j+1:]...)
		// Connections to the removed DIP end; flows on the survivors must
		// keep their DIP.
		for _, f := range r.fs.flowsOf[vi] {
			if r.flowDIP[f] == dip {
				r.flowDIP[f] = 0
			}
		}
		k--
	}
	return nil
}

// checkComputeFrom recomputes the epoch from scratch (outside the timed
// section) and requires the incremental result to equal it.
func (r *inproc) checkComputeFrom(prev *assign.Assignment, epoch int) {
	got := r.ct.Previous()
	want, err := assign.ComputeFrom(r.c.Net, r.w, epoch, prev, r.ct.Opts)
	if err != nil {
		r.chk.fail("ComputeFrom: %v", err)
		return
	}
	if got.NumAssigned != want.NumAssigned || got.NumNMux != want.NumNMux ||
		got.AssignedRate != want.AssignedRate || got.NMuxRate != want.NMuxRate || got.MRU != want.MRU {
		r.chk.fail("ComputeDelta != ComputeFrom: assigned %d/%d nmux %d/%d mru %v/%v",
			got.NumAssigned, want.NumAssigned, got.NumNMux, want.NumNMux, got.MRU, want.MRU)
		return
	}
	for i := range want.SwitchOf {
		if got.SwitchOf[i] != want.SwitchOf[i] || got.TierOf[i] != want.TierOf[i] || got.ModeOf[i] != want.ModeOf[i] {
			r.chk.fail("ComputeDelta != ComputeFrom at VIP %d", i)
			return
		}
	}
}

// ladder times each dataplane layer from outside, by calling its public
// function on the workload's own packets.
type ladder struct {
	clock       time.Duration
	ns          map[string][]float64
	allocs      [numTiers]float64
	agentAllocs float64
	samples     [numTiers][]int32 // flows seen per tier, for the allocation batches
}

func newLadder(on bool) *ladder {
	l := &ladder{ns: make(map[string][]float64)}
	if on {
		l.clock = clockCost()
		for _, name := range []string{"core.deliver", "core.residual", "packet.parse", "bgp.pick",
			"hmux.process", "nmux.process", "smux.process", "hostagent.receive"} {
			l.ns[name] = make([]float64, 0, 1<<16)
		}
	}
	return l
}

// rec keeps one sample of a layer's time, less the timer's own cost.
func (l *ladder) rec(name string, d time.Duration) float64 {
	v := float64(d - l.clock)
	l.keep(name, v)
	return v
}

func (l *ladder) keep(name string, v float64) {
	if xs := l.ns[name]; len(xs) < cap(xs) {
		l.ns[name] = append(xs, v)
	}
}

func (l *ladder) median(name string) float64 { return median(l.ns[name]) }

// run is one traced packet: Deliver under a span, then the ladder.
func (l *ladder) run(r *inproc, id uint64, pkt []byte) (core.Delivery, error) {
	tr := r.tr
	root := tr.begin(id, "packet", -1)
	defer tr.end(root)

	t0 := time.Now()
	d, err := r.c.Deliver(pkt)
	t1 := time.Now()
	tr.add(id, "core.deliver", root, t0, t1)
	if err != nil {
		return d, err
	}
	deliver := l.rec("core.deliver", t1.Sub(t0))

	var sum float64
	t0 = time.Now()
	tuple, err := packet.ExtractFiveTuple(pkt)
	t1 = time.Now()
	tr.add(id, "packet.parse", root, t0, t1)
	if err != nil {
		return d, err
	}
	sum += l.rec("packet.parse", t1.Sub(t0))
	hash := ecmp.Hash(tuple)

	now := r.c.Now()
	t0 = time.Now()
	nh, _, ok := r.c.Routes.Snapshot().Pick(tuple.Dst, now, hash)
	t1 = time.Now()
	tr.add(id, "bgp.pick", root, t0, t1)
	if !ok {
		return d, core.ErrNoRoute
	}
	sum += l.rec("bgp.pick", t1.Sub(t0))

	var encapped []byte
	if nh < smuxNodeBase {
		t0 = time.Now()
		res, err := r.c.HMuxes[nh].Process(pkt, nil)
		t1 = time.Now()
		tr.add(id, "hmux.process", root, t0, t1)
		if err != nil {
			return d, err
		}
		sum += l.rec("hmux.process", t1.Sub(t0))
		encapped = res.Packet
		l.sample(tierHMux, id)
	} else {
		idx := int(nh - smuxNodeBase)
		served := false
		if len(r.c.NMuxes) > 0 {
			t0 = time.Now()
			res, err := r.c.NMuxes[idx].Process(pkt, nil)
			t1 = time.Now()
			tr.add(id, "nmux.process", root, t0, t1)
			sum += l.rec("nmux.process", t1.Sub(t0))
			switch {
			case err == nil:
				encapped, served = res.Packet, true
				l.sample(tierNMux, id)
			case !errors.Is(err, nmux.ErrNotOurVIP):
				return d, err
			}
		}
		if !served {
			t0 = time.Now()
			res, err := r.c.SMuxes[idx].Process(pkt, nil)
			t1 = time.Now()
			tr.add(id, "smux.process", root, t0, t1)
			if err != nil {
				return d, err
			}
			sum += l.rec("smux.process", t1.Sub(t0))
			encapped = res.Packet
			l.sample(tierSMux, id)
		}
	}

	agent, ok := r.c.Agent(outerDst(encapped))
	if !ok {
		return d, core.ErrNoHostAgent
	}
	t0 = time.Now()
	_, err = agent.Receive(encapped, nil)
	t1 = time.Now()
	tr.add(id, "hostagent.receive", root, t0, t1)
	if err != nil {
		return d, err
	}
	sum += l.rec("hostagent.receive", t1.Sub(t0))
	l.keep("core.residual", deliver-sum)
	return d, nil
}

func (l *ladder) sample(tier int, id uint64) {
	if len(l.samples[tier]) < 4096 {
		l.samples[tier] = append(l.samples[tier], int32(id))
	}
}

// finish measures each mux's and the host agent's allocations per call in
// batches over the packets the ladder saw on that tier (outside any timed
// section). Route picks and agent lookups happen before each batch, so the
// batch counts only the layer's own allocations.
func (l *ladder) finish(r *inproc) {
	var encs [][]byte
	for tier, flows := range l.samples {
		if len(flows) == 0 {
			continue
		}
		idx := make([]int, len(flows))
		for i, f := range flows {
			tuple, _ := packet.ExtractFiveTuple(r.fs.pkts[f])
			nh, _, _ := r.c.Routes.Snapshot().Pick(tuple.Dst, r.c.Now(), ecmp.Hash(tuple))
			idx[i] = int(nh)
			if nh >= smuxNodeBase {
				idx[i] = int(nh - smuxNodeBase)
			}
		}
		outs := make([][]byte, len(flows))
		p0 := readProc()
		for i, f := range flows {
			pkt := r.fs.pkts[f]
			switch tier {
			case tierHMux:
				res, _ := r.c.HMuxes[idx[i]].Process(pkt, nil)
				outs[i] = res.Packet
			case tierNMux:
				res, _ := r.c.NMuxes[idx[i]].Process(pkt, nil)
				outs[i] = res.Packet
			case tierSMux:
				res, _ := r.c.SMuxes[idx[i]].Process(pkt, nil)
				outs[i] = res.Packet
			}
		}
		l.allocs[tier] = float64(p0.to(readProc()).mallocs) / float64(len(flows))
		encs = append(encs, outs...)
	}
	agents := make([]*hostagent.Agent, 0, len(encs))
	kept := make([][]byte, 0, len(encs))
	for _, e := range encs {
		if len(e) < 20 {
			continue
		}
		if a, ok := r.c.Agent(outerDst(e)); ok {
			agents = append(agents, a)
			kept = append(kept, e)
		}
	}
	if len(kept) > 0 {
		p0 := readProc()
		for i, e := range kept {
			_, _ = agents[i].Receive(e, nil)
		}
		l.agentAllocs = float64(p0.to(readProc()).mallocs) / float64(len(kept))
	}
}

// outerDst reads the IPv4 destination of an encapsulated packet.
func outerDst(p []byte) packet.Addr {
	return packet.Addr(uint32(p[16])<<24 | uint32(p[17])<<16 | uint32(p[18])<<8 | uint32(p[19]))
}
