package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/hostagent"
	"duet/internal/packet"
	"duet/internal/service"
	"duet/internal/smux"
	"duet/internal/steer"
	"duet/internal/telemetry"
	"duet/internal/wire"
)

// The wire-loopback workload: a controller, one SMux node and eight host
// agents run as wire nodes in this process and talk over real UDP and TCP
// sockets on the loopback interface. One more host, the tap, is a socket the
// benchmark owns: the SMux forwards one VIP's traffic to it, so the frames
// on the wire can be checked byte for byte. A wire host serves exactly one
// VIP (its address is the DIP), so each VIP has hosts of its own.
const (
	wireVIPs     = 4 // plus the tap VIP
	wireDIPs     = 2 // hosts per VIP
	wireHosts    = wireVIPs * wireDIPs
	wireTapShare = 16 // one flow in this many goes to the tap VIP
	wireFlows    = 4096
	wireProbes   = 4000 // at least this many one-frame-in-flight latency probes
	wireEpochs   = 80   // controller epochs timed during the latency phase
	wireChurnMS  = 25   // controller epoch period
	// wireWindow bounds the frames in flight in the traffic phase. It stays
	// under the nodes' 1024-frame backlog, so no frame is dropped, and
	// covers the ~1 ms a sleeping sender oversleeps.
	wireWindow = 512
)

var (
	smuxSelf = packet.AddrFrom4(20, 0, 0, 1)
	tapSelf  = packet.AddrFrom4(100, 0, 1, 1)
	tapVIP   = packet.AddrFrom4(10, 0, 1, 1)
)

func hostSelf(i int) packet.Addr { return packet.AddrFrom4(100, 0, 0, byte(i+1)) }

// wireInputs is the generated input of one run: the cluster spec and the
// frames the generator sends.
type wireInputs struct {
	spec   *wire.ClusterSpec
	pkts   [][]byte // one packet per flow
	frames [][]byte // the same packets, framed
	order  []int32  // send order
	tapOf  map[uint64]int32
	dips   int // host-agent DIP registrations the controller must push
}

// flowKey identifies a flow by its source address and port, which the
// generator keeps unique.
func flowKey(pkt []byte) uint64 {
	return uint64(binary.BigEndian.Uint32(pkt[12:16]))<<16 | uint64(binary.BigEndian.Uint16(pkt[20:22]))
}

// ports hands out free loopback endpoints. Each probe socket stays open
// until release, so the kernel cannot hand the same port out twice.
type ports struct{ held []interface{ Close() error } }

func (p *ports) tcp() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	p.held = append(p.held, ln)
	return ln.Addr().String(), nil
}

func (p *ports) udp() (string, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", err
	}
	p.held = append(p.held, c)
	return c.LocalAddr().String(), nil
}

func (p *ports) release() {
	for _, c := range p.held {
		_ = c.Close()
	}
}

// generateWire builds the spec and traffic from seed. Endpoints are free
// loopback ports; everything else is a function of the seed.
func generateWire(seed int64, tapAddr string) (*wireInputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x3a7e))
	spec := &wire.ClusterSpec{ChurnMillis: wireChurnMS, ChurnSeed: seed}
	var p ports
	defer p.release()
	ctl, err := p.tcp()
	if err != nil {
		return nil, err
	}
	spec.Nodes = append(spec.Nodes, wire.NodeSpec{Name: "ctl", Role: wire.RoleController, Control: ctl})
	node := func(name, role string, self packet.Addr) error {
		data, err := p.udp()
		if err != nil {
			return err
		}
		ctl, err := p.tcp()
		if err != nil {
			return err
		}
		spec.Nodes = append(spec.Nodes, wire.NodeSpec{Name: name, Role: role, Self: self.String(), Data: data, Control: ctl})
		return nil
	}
	if err := node("smux-0", wire.RoleSMux, smuxSelf); err != nil {
		return nil, err
	}
	for h := 0; h < wireHosts; h++ {
		if err := node(fmt.Sprintf("host-%d", h), wire.RoleHostAgent, hostSelf(h)); err != nil {
			return nil, err
		}
	}
	// The tap has a data endpoint and no control endpoint: the controller
	// never programs it, and nothing but the SMux ever sends to it.
	spec.Nodes = append(spec.Nodes, wire.NodeSpec{Name: "tap", Role: wire.RoleHostAgent, Self: tapSelf.String(), Data: tapAddr})

	in := &wireInputs{spec: spec, tapOf: make(map[uint64]int32)}
	vips := make([]packet.Addr, 0, wireVIPs+1)
	for v := 0; v < wireVIPs; v++ {
		addr := packet.AddrFrom4(10, 0, 0, byte(v+1))
		vs := wire.VIPSpec{Addr: addr.String(), Mode: steer.ModeStateful.String()}
		if v%2 == 1 {
			vs.Mode = steer.ModeHybrid.String()
		}
		for h := v * wireDIPs; h < (v+1)*wireDIPs; h++ {
			vs.Backends = append(vs.Backends, wire.BackendSpec{Addr: hostSelf(h).String(), Weight: 1})
		}
		in.dips += wireDIPs
		spec.VIPs = append(spec.VIPs, vs)
		vips = append(vips, addr)
	}
	spec.VIPs = append(spec.VIPs, wire.VIPSpec{Addr: tapVIP.String(), Backends: []wire.BackendSpec{{Addr: tapSelf.String(), Weight: 1}}})
	vips = append(vips, tapVIP)
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	seen := make(map[uint64]bool, wireFlows)
	for len(in.pkts) < wireFlows {
		dst := vips[rng.Intn(wireVIPs)]
		if rng.Intn(wireTapShare) == 0 {
			dst = tapVIP
		}
		tuple := packet.FiveTuple{
			Src:     packet.AddrFrom4(20, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(254))),
			Dst:     dst,
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
		pkt := packet.BuildTCP(tuple, packet.TCPAck, nil)
		k := flowKey(pkt)
		if seen[k] {
			continue
		}
		seen[k] = true
		if dst == tapVIP {
			in.tapOf[k] = int32(len(in.pkts))
		}
		in.pkts = append(in.pkts, pkt)
		in.frames = append(in.frames, wire.AppendFrame(nil, pkt))
	}
	for _, p := range rng.Perm(wireFlows) {
		in.order = append(in.order, int32(p))
	}
	return in, nil
}

// tap receives the frames the SMux forwards to the benchmark-owned host and
// checks each one: a valid wire frame carrying IP-in-IP to the tap host,
// whose inner packet is byte-identical to the packet sent.
type tap struct {
	conn   *net.UDPConn
	in     *wireInputs
	count  atomic.Uint64
	bad    atomic.Uint64
	done   chan struct{}
	sig    chan struct{} // a frame arrived; wakes a sender waiting on the window
	mu     sync.Mutex
	errMsg string
}

func (t *tap) run() {
	defer close(t.done)
	buf := make([]byte, 4096)
	for {
		n, err := t.conn.Read(buf)
		if err != nil {
			return // closed at the end of the run
		}
		payload, err := wire.DecodeFrame(buf[:n])
		ok := err == nil && len(payload) >= 40
		if ok {
			f, found := t.in.tapOf[flowKey(payload[20:])]
			ok = found && ipipTo(payload, tapSelf, t.in.pkts[f])
		}
		if !ok {
			if t.bad.Add(1) == 1 {
				t.mu.Lock()
				t.errMsg = fmt.Sprintf("tap frame of %d bytes is not IP-in-IP to %s around a sent packet", n, tapSelf)
				t.mu.Unlock()
			}
		}
		t.count.Add(1)
		select {
		case t.sig <- struct{}{}:
		default:
		}
	}
}

// wireCluster is the running wire deployment.
type wireCluster struct {
	ctl   *wire.Node
	smux  *wire.Node
	hosts []*wire.Node
	all   []*wire.Node

	delivered []*telemetry.Counter
	tap       *tap
}

func (c *wireCluster) deliveredTotal() uint64 {
	n := c.tap.count.Load()
	for _, d := range c.delivered {
		n += d.Value()
	}
	return n
}

func (c *wireCluster) sum(name string) uint64 {
	var n uint64
	for _, nd := range c.all {
		n += nd.Reg.Counter(name).Value()
	}
	return n
}

func (c *wireCluster) close() {
	// The controller first, so no push is in flight when its peers go.
	for i := len(c.all) - 1; i >= 0; i-- {
		c.all[i].Close()
	}
	_ = c.tap.conn.Close()
	<-c.tap.done
}

// epochWatch times controller epochs from outside: from the moment the
// leader's epoch counter shows a new log append until every dataplane node
// reports that epoch applied. It is polled from the latency phase's spin
// loop: resolving a millisecond epoch needs a spinning observer (a timed
// sleep wakes about 1 ms late), and a second spinning goroutine would leave
// no processor free for the nodes.
type epochWatch struct {
	epochs *telemetry.Counter
	nodes  []*telemetry.Gauge
	tr     *tracer
	ms     []float64

	last    uint64 // newest epoch seen applied everywhere
	head    uint64 // epoch being timed, when pending
	pending bool
	t0      time.Time
}

// poll advances the watch without blocking.
func (e *epochWatch) poll() {
	if !e.pending {
		h := e.epochs.Value()
		if h == e.last {
			return
		}
		e.head, e.t0, e.pending = h, time.Now(), true
	}
	for _, g := range e.nodes {
		if uint64(g.Value()) < e.head {
			return
		}
	}
	t1 := time.Now()
	e.ms = append(e.ms, t1.Sub(e.t0).Seconds()*1e3)
	e.tr.add(e.head, "wire.epoch", -1, e.t0, t1)
	e.last, e.pending = e.head, false
}

func runWire(opt options) (*result, error) {
	res := &result{}
	var tr *tracer
	if opt.trace {
		tr = newTracer(opt.start, 1<<18)
	}
	tapConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	in, err := generateWire(opt.seed, tapConn.LocalAddr().String())
	if err != nil {
		tapConn.Close()
		return nil, err
	}
	sender, err := net.DialUDP("udp", nil, mustUDPAddr(in.spec.Nodes[1].Data))
	if err != nil {
		tapConn.Close()
		return nil, err
	}
	defer sender.Close()
	lat := newHist()
	tracedLat := newHist()
	genEnd := time.Now()
	tr.add(0, "setup.generate", -1, opt.start, genEnd)
	heapBefore := liveHeap()

	// --- set-up: dataplane nodes first, then the controller -----------------
	startAt := time.Now()
	c := &wireCluster{tap: &tap{conn: tapConn, in: in, done: make(chan struct{}), sig: make(chan struct{}, 1)}}
	go c.tap.run()
	defer c.close()
	for _, ns := range in.spec.Nodes[1:] {
		if ns.Name == "tap" {
			continue
		}
		n, err := wire.StartNode(in.spec, ns.Name)
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", ns.Name, err)
		}
		c.all = append(c.all, n)
		if ns.Role == wire.RoleSMux {
			c.smux = n
		} else {
			c.hosts = append(c.hosts, n)
			c.delivered = append(c.delivered, n.Reg.Counter("wire.delivered"))
		}
	}
	c.ctl, err = wire.StartNode(in.spec, "ctl")
	if err != nil {
		return nil, fmt.Errorf("start ctl: %w", err)
	}
	c.all = append(c.all, c.ctl)
	vipsG := c.smux.Reg.Gauge("wire.vips")
	var dipsG []*telemetry.Gauge
	for _, h := range c.hosts {
		dipsG = append(dipsG, h.Reg.Gauge("wire.dips"))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ready := vipsG.Value() == wireVIPs+1
		var dips int64
		for _, g := range dipsG {
			dips += g.Value()
		}
		if ready && dips == int64(in.dips) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster not programmed after 10s (smux VIPs %d, host DIPs %d of %d)", vipsG.Value(), dips, in.dips)
		}
		time.Sleep(100 * time.Microsecond)
	}
	setupEnd := time.Now()
	tr.add(0, "setup.sync", -1, startAt, setupEnd)
	setupS := genEnd.Sub(opt.start).Seconds() + setupEnd.Sub(startAt).Seconds()
	heapMB := float64(liveHeap()-heapBefore) / 1e6

	watch := &epochWatch{epochs: c.ctl.Reg.Counter("wire.controller.epochs"), tr: tr}
	watch.last = watch.epochs.Value()
	for _, n := range c.all[:len(c.all)-1] {
		watch.nodes = append(watch.nodes, n.Reg.Gauge("wire.delta.epoch"))
	}

	var sent uint64
	cursor := 0
	next := func() []byte {
		f := in.order[cursor]
		if cursor++; cursor == len(in.order) {
			cursor = 0
		}
		return in.frames[f]
	}
	var sendErr error

	// --- latency phase: one frame in flight, controller epochs timed -------
	// The wait spins (a timed sleep would add ~1 ms) and polls the epoch
	// watch on the way. The phase lasts until enough epochs are timed.
	phaseEnd := time.Now().Add(10 * time.Second)
	for p := 0; (p < wireProbes || len(watch.ms) < wireEpochs) && sendErr == nil; p++ {
		if time.Now().After(phaseEnd) {
			sendErr = errors.New("latency phase: epochs stopped completing")
			break
		}
		frame := next()
		traced := opt.trace && p%2 == 1
		var root int32 = -1
		if traced {
			root = tr.begin(uint64(p), "wire.frame", -1)
		}
		t0 := time.Now()
		_, sendErr = sender.Write(frame)
		if traced {
			tr.add(uint64(p), "wire.send", root, t0, time.Now())
		}
		if sendErr != nil {
			break
		}
		sent++
		for c.deliveredTotal() < sent && time.Since(t0) < time.Second {
			watch.poll()
		}
		el := time.Since(t0)
		if traced {
			tr.end(root)
			tracedLat.Record(int64(el))
		} else {
			lat.Record(int64(el))
		}
	}

	// --- traffic phase: closed loop, bounded window ------------------------
	// While the window is full the sender blocks until the tap sees a frame
	// (one in 16 frames goes there), so it leaves both processors to the
	// nodes and still refills the window within ~0.1 ms; a timed sleep
	// would oversleep by ~1 ms. The timer only guards against a window
	// holding no tap frame.
	wake := time.NewTimer(time.Hour)
	wake.Stop()
	ev0 := c.recorded()
	pushes0, epochs0 := c.ctl.Reg.Counter("wire.controller.delta_pushes").Value(), watch.epochs.Value()
	d0 := c.deliveredTotal()
	p0 := readProc()
	trafficStart := time.Now()
	dur := time.Duration(opt.seconds) * time.Second
	delivered := d0
	for k := 0; sendErr == nil; k++ {
		if k%256 == 0 && time.Since(trafficStart) >= dur {
			break
		}
		for sent-delivered >= wireWindow {
			wake.Reset(2 * time.Millisecond)
			select {
			case <-c.tap.sig:
				if !wake.Stop() {
					<-wake.C
				}
			case <-wake.C:
			}
			delivered = c.deliveredTotal()
		}
		if _, sendErr = sender.Write(next()); sendErr != nil {
			break
		}
		sent++
		if k%16 == 0 {
			delivered = c.deliveredTotal()
		}
	}
	for t := time.Now(); c.deliveredTotal() < sent && time.Since(t) < 2*time.Second; {
		time.Sleep(100 * time.Microsecond)
	}
	trafficEnd := time.Now()
	proc := p0.to(readProc())
	trafficDelivered := c.deliveredTotal() - d0

	// --- checks -------------------------------------------------------------
	var chk checker
	if sendErr != nil {
		chk.fail("send: %v", sendErr)
	}
	total := c.deliveredTotal()
	res.attempted = sent
	if total < sent {
		res.failed = sent - total
	}
	if total != sent {
		chk.fail("delivered %d frames, sent %d", total, sent)
	}
	smuxRx := c.smux.Reg.Counter("wire.rx.frames").Value()
	smuxTx := c.smux.Reg.Counter("wire.tx.frames").Value()
	if smuxRx != sent || smuxTx != sent {
		chk.fail("smux rx %d and tx %d frames, sent %d", smuxRx, smuxTx, sent)
	}
	var hostDelivered, hostRx uint64
	for i, h := range c.hosts {
		hostDelivered += c.delivered[i].Value()
		hostRx += h.Reg.Counter("wire.rx.frames").Value()
	}
	if hostDelivered != hostRx || hostDelivered+c.tap.count.Load() != smuxTx {
		chk.fail("hosts received %d frames and delivered %d, tap %d, smux sent %d", hostRx, hostDelivered, c.tap.count.Load(), smuxTx)
	}
	for _, name := range []string{"wire.drops.total", "smux.drops.malformed", "smux.drops.unknown_vip",
		"smux.drops.no_backend", "smux.drops.encap_error", "hostagent.drops.decap_error", "hostagent.drops.not_local"} {
		if n := c.sum(name); n != 0 {
			chk.fail("%s = %d", name, n)
		}
	}
	if c.tap.count.Load() == 0 {
		chk.fail("no frame reached the tap")
	}
	if c.tap.bad.Load() > 0 {
		c.tap.mu.Lock()
		chk.fail("%d bad tap frames: %s", c.tap.bad.Load(), c.tap.errMsg)
		c.tap.mu.Unlock()
	}
	if len(watch.ms) == 0 {
		chk.fail("no controller epoch completed")
	}
	res.correct = chk.ok()
	res.msgs = chk.msgs
	if trafficDelivered == 0 || lat.Count() == 0 {
		return res, errors.New("nothing delivered")
	}
	pkts := float64(trafficDelivered)
	fmt.Fprintf(stderr, "perfbench: wire-loopback seed %d: %d frames sent, %d to the tap, %d epochs\n",
		opt.seed, sent, c.tap.count.Load(), len(watch.ms))
	if !opt.trace {
		res.add("pps", "1/s", pkts/trafficEnd.Sub(trafficStart).Seconds())
		res.add("lat_us_p50", "us", lat.Quantile(0.50)/1e3)
		res.add("lat_us_p90", "us", lat.Quantile(0.90)/1e3)
		res.add("allocs_per_pkt", "1/pkt", float64(proc.mallocs)/pkts)
		res.add("cpu_us_per_pkt", "us", (proc.user+proc.sys).Seconds()*1e6/pkts)
		res.add("epoch_ms_p50", "ms", median(watch.ms))
		res.add("setup_s", "s", setupS)
		res.add("heap_mb", "MB", heapMB)
		return res, nil
	}

	handler, smuxNS, agentNS := wireHandlerLadder(in, tr)
	cpuNS := float64(proc.user+proc.sys) / pkts
	res.add("setup.generate_s", "s", genEnd.Sub(opt.start).Seconds())
	res.add("setup.sync_s", "s", setupEnd.Sub(startAt).Seconds())
	res.add("wire.user_us_per_pkt", "us/pkt", proc.user.Seconds()*1e6/pkts)
	res.add("wire.sys_us_per_pkt", "us/pkt", proc.sys.Seconds()*1e6/pkts)
	res.add("wire.ctxsw_per_pkt", "1/pkt", float64(proc.ctxsw)/pkts)
	res.add("wire.handler_ns", "ns", handler)
	res.add("wire.residual_ns", "ns", cpuNS-handler)
	epochs := watch.epochs.Value() - epochs0
	if epochs > 0 {
		res.add("wire.delta_pushes_per_epoch", "1/epoch",
			float64(c.ctl.Reg.Counter("wire.controller.delta_pushes").Value()-pushes0)/float64(epochs))
	}
	res.add("wire.full_pushes", "count", float64(c.ctl.Reg.Counter("wire.controller.full_pushes").Value()))
	res.add("wire.backlog_drops", "count", float64(c.sum("wire.drops.backlog_full")))
	res.add("smux.process_ns", "ns", smuxNS)
	res.add("hostagent.receive_ns", "ns", agentNS)
	res.add("telemetry.events_per_pkt", "1/pkt", float64(c.recorded()-ev0)/pkts)
	res.add("runtime.alloc_bytes_per_pkt", "B/pkt", float64(proc.allocBytes)/pkts)
	res.add("runtime.gc_per_mpkt", "1/Mpkt", float64(proc.gcCycles)*1e6/pkts)
	untraced := lat.Quantile(0.5)
	res.add("bench.trace_overhead_pct", "%", 100*(tracedLat.Quantile(0.5)-untraced)/untraced)
	if opt.out != "" {
		return res, tr.write(spanPath(opt))
	}
	return res, nil
}

func (c *wireCluster) recorded() uint64 {
	var n uint64
	for _, nd := range c.all {
		n += nd.Rec.Recorded()
	}
	return n
}

func mustUDPAddr(s string) *net.UDPAddr {
	a, err := net.ResolveUDPAddr("udp", s)
	if err != nil {
		panic(err) // generated from a bound socket's own address
	}
	return a
}

// wireHandlerLadder runs the wire nodes' handler work in process, on the
// same frames: the SMux node's Process into a reused scratch buffer, then
// the host agent's Receive, as the nodes' handlers call them. It returns the
// median cost of the pair and of each call.
func wireHandlerLadder(in *wireInputs, tr *tracer) (handler, smuxNS, agentNS float64) {
	sm := smux.New(smux.DefaultConfig(smuxSelf))
	agents := make(map[packet.Addr]*hostagent.Agent)
	for _, vs := range in.spec.VIPs {
		addr := packet.MustParseAddr(vs.Addr)
		v := &service.VIP{Addr: addr}
		for _, b := range vs.Backends {
			v.Backends = append(v.Backends, service.Backend{Addr: packet.MustParseAddr(b.Addr), Weight: b.Weight})
		}
		mode, err := steer.ParseMode(vs.Mode)
		if err != nil {
			return
		}
		if err := sm.AddVIP(v); err != nil {
			return
		}
		if err := sm.SetVIPMode(addr, mode); err != nil {
			return
		}
		for _, b := range v.Backends {
			a, ok := agents[b.Addr]
			if !ok {
				a = hostagent.New(b.Addr)
				agents[b.Addr] = a
			}
			if err := a.RegisterDIP(addr, b.Addr); err != nil {
				return
			}
		}
	}
	clk := clockCost()
	scratch := make([]byte, 0, 2048)
	scratch2 := make([]byte, 0, 2048)
	var hs, ss, as []float64
	for i := 0; i < 2*wireFlows; i++ {
		pkt := in.pkts[in.order[i%len(in.order)]]
		id := uint64(i)
		root := tr.begin(id, "wire.handler", -1)
		t0 := time.Now()
		r, err := sm.Process(pkt, scratch[:0])
		t1 := time.Now()
		if err != nil {
			continue
		}
		a := agents[r.Encap]
		t2 := time.Now()
		_, err = a.Receive(r.Packet, scratch2[:0])
		t3 := time.Now()
		tr.add(id, "smux.process", root, t0, t1)
		tr.add(id, "hostagent.receive", root, t2, t3)
		tr.end(root)
		if err != nil || i < wireFlows {
			continue // the first pass warms the connection table
		}
		s, ag := float64(t1.Sub(t0)-clk), float64(t3.Sub(t2)-clk)
		ss, as, hs = append(ss, s), append(as, ag), append(hs, s+ag)
	}
	return median(hs), median(ss), median(as)
}
