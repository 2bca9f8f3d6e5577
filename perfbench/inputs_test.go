package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"duet/internal/core"
	"duet/internal/packet"
	"duet/internal/topology"
)

func testSpec() inprocSpec {
	s := smuxChurn
	s.vips, s.flows = 100, 2000
	return s
}

func generateOrFail(t *testing.T, seed int64) *flowSet {
	t.Helper()
	topo, err := topology.New(core.DefaultConfig().Topology)
	if err != nil {
		t.Fatal(err)
	}
	_, fs, err := generate(testSpec(), topo, seed)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestGenerateSameSeedSameInputs(t *testing.T) {
	a, b := generateOrFail(t, 7), generateOrFail(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
}

func TestGenerateOtherSeedOtherInputs(t *testing.T) {
	a, b := generateOrFail(t, 7), generateOrFail(t, 8)
	same := 0
	for f := range a.pkts {
		if bytes.Equal(a.pkts[f], b.pkts[f]) {
			same++
		}
	}
	if same > 0 || reflect.DeepEqual(a.vipOf, b.vipOf) {
		t.Fatalf("seeds 7 and 8 share %d of %d packets or the VIP sequence", same, len(a.pkts))
	}
}

// The wire inputs depend on the seed except for the loopback endpoints,
// which are whatever ports are free.
func TestGenerateWireSeeds(t *testing.T) {
	gen := func(seed int64) *wireInputs {
		in, err := generateWire(seed, "127.0.0.1:9")
		if err != nil {
			t.Fatal(err)
		}
		for i := range in.spec.Nodes {
			in.spec.Nodes[i].Data, in.spec.Nodes[i].Control = "", ""
		}
		return in
	}
	a, b, c := gen(3), gen(3), gen(4)
	ja, _ := json.Marshal(a.spec)
	jb, _ := json.Marshal(b.spec)
	if !bytes.Equal(ja, jb) || !reflect.DeepEqual(a.pkts, b.pkts) || !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("two wire generations from seed 3 differ")
	}
	if reflect.DeepEqual(a.pkts, c.pkts) {
		t.Fatal("seeds 3 and 4 give the same wire traffic")
	}
}

func TestChecksAcceptTheRewriteOnly(t *testing.T) {
	fs := generateOrFail(t, 1)
	sent := fs.pkts[0]
	got := append([]byte(nil), sent...)
	dip := [4]byte{100, 1, 2, 3}
	copy(got[16:20], dip[:])
	// Recompute the header checksum the way a correct rewrite would.
	got[10], got[11] = 0, 0
	var sum uint32
	for i := 0; i < 20; i += 2 {
		sum += uint32(got[i])<<8 | uint32(got[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	got[10], got[11] = byte(^sum>>8), byte(^sum)
	addr := uint32(dip[0])<<24 | uint32(dip[1])<<16 | uint32(dip[2])<<8 | uint32(dip[3])
	if !sameExceptDst(got, sent, packet.Addr(addr)) {
		t.Fatal("a correct DIP rewrite was rejected")
	}
	got[len(got)-1] ^= 1
	if sameExceptDst(got, sent, packet.Addr(addr)) {
		t.Fatal("a payload change was accepted")
	}
	got[len(got)-1] ^= 1
	got[10] ^= 1
	if sameExceptDst(got, sent, packet.Addr(addr)) {
		t.Fatal("a bad header checksum was accepted")
	}
}
