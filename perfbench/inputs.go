package main

import (
	"fmt"
	"math/rand"
	"sort"

	"duet/internal/packet"
	"duet/internal/topology"
	"duet/internal/workload"
)

// inprocSpec describes one in-process workload's inputs. Everything the
// program receives is generated from it and the run's seed.
type inprocSpec struct {
	name string

	// VIP population and rate trace (internal/workload, Fig 15 shape).
	vips        int
	totalRate   float64
	skew        float64
	maxDIPs     int     // DIP count the placement engine sees per VIP
	backends    int     // DIPs actually programmed per VIP (controller.SyncVIPs cap)
	driftFrac   float64 // share of VIPs whose rate moves each epoch
	dipChurn    float64 // share of multi-DIP VIPs losing one DIP each epoch
	maxHMuxVIPs int     // 0: the paper's 16K host-table cap
	nmuxTable   int     // NIC match-table entries per SMux server; 0: tier off
	hybridRate  float64 // epoch rate (bps) from which a VIP runs hybrid; 0: all stateful

	// Traffic.
	flows     int
	payloads  []int     // TCP payload sizes
	sizeShare []float64 // share of flows with each payload size
	slice     int       // packets per traffic slice
	checkFrom int       // every this many epochs, ComputeDelta is compared with ComputeFrom
}

var hwSteady = inprocSpec{
	name:        "hw-steady",
	vips:        2000,
	totalRate:   1.2e12,
	skew:        1.6,
	maxDIPs:     64,
	backends:    4,
	driftFrac:   0.01,
	maxHMuxVIPs: 1600,
	flows:       1 << 16,
	payloads:    []int{0},
	sizeShare:   []float64{1},
	slice:       1 << 15,
	checkFrom:   16,
}

var smuxChurn = inprocSpec{
	name:        "smux-churn",
	vips:        600,
	totalRate:   6e11,
	skew:        1.2,
	maxDIPs:     16,
	backends:    4,
	driftFrac:   1,
	dipChurn:    0.01,
	maxHMuxVIPs: 12,
	nmuxTable:   1024,
	hybridRate:  5e8,
	flows:       1 << 17,
	payloads:    []int{0, 88, 536, 1460},
	sizeShare:   []float64{0.4, 0.3, 0.2, 0.1},
	slice:       1 << 15,
	checkFrom:   16,
}

// flowSet is the generated traffic: one prebuilt packet per flow. Flows
// are generated in random VIP order, and the generator sends them in turn,
// each slice continuing where the last one ended; walking the arrays in
// order keeps the generator's own cache misses out of the measurement.
type flowSet struct {
	pkts    [][]byte
	vipOf   []int32   // flow → workload VIP index
	flowsOf [][]int32 // VIP index → its flows
}

// generate builds the workload and the traffic for spec from seed. The
// same seed always yields identical inputs.
func generate(spec inprocSpec, topo *topology.Topology, seed int64) (*workload.Workload, *flowSet, error) {
	w, err := workload.Generate(workload.Config{
		NumVIPs:      spec.vips,
		TotalRate:    spec.totalRate,
		Epochs:       2, // two rate slots, rewritten in turn by the drift
		Seed:         seed,
		TrafficSkew:  spec.skew,
		MaxDIPs:      spec.maxDIPs,
		InternetFrac: 0.3,
		ChurnStdDev:  0.25,
	}, topo)
	if err != nil {
		return nil, nil, fmt.Errorf("generate workload: %w", err)
	}
	copy(w.Rates[1], w.Rates[0])

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// Flows pick their VIP in proportion to the epoch-0 rate, so packets are
	// sampled the same way: every flow is sent once per pass over the order.
	cum := make([]float64, len(w.VIPs))
	var total float64
	for i, r := range w.Rates[0] {
		total += r
		cum[i] = total
	}
	cumSize := make([]float64, len(spec.sizeShare))
	var sz float64
	for i, s := range spec.sizeShare {
		sz += s
		cumSize[i] = sz
	}
	fs := &flowSet{
		pkts:    make([][]byte, spec.flows),
		vipOf:   make([]int32, spec.flows),
		flowsOf: make([][]int32, len(w.VIPs)),
	}
	payload := make([]byte, 1500)
	for f := 0; f < spec.flows; f++ {
		vi := sort.SearchFloat64s(cum, rng.Float64()*total)
		if vi >= len(cum) {
			vi = len(cum) - 1
		}
		n := spec.payloads[sort.SearchFloat64s(cumSize, rng.Float64()*sz)]
		rng.Read(payload[:n])
		tuple := packet.FiveTuple{
			Src:     packet.AddrFrom4(20, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(254))),
			Dst:     w.VIPs[vi].Addr,
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
		fs.pkts[f] = packet.BuildTCP(tuple, packet.TCPAck, payload[:n])
		fs.vipOf[f] = int32(vi)
		fs.flowsOf[vi] = append(fs.flowsOf[vi], int32(f))
	}
	return w, fs, nil
}
