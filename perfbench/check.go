package main

import (
	"encoding/binary"
	"fmt"

	"duet/internal/packet"
)

// The output checks are computed here, apart from the program: the
// checksum and header comparisons below do not call internal/packet.

// ipChecksumOK reports whether an IPv4 header's ones-complement sum is
// all ones (a valid header checksum).
func ipChecksumOK(hdr []byte) bool {
	if len(hdr) < 20 {
		return false
	}
	ihl := int(hdr[0]&0x0f) * 4
	if ihl < 20 || len(hdr) < ihl {
		return false
	}
	var sum uint32
	for i := 0; i < ihl; i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return sum == 0xffff
}

// sameExceptDst reports whether got is sent with only the IPv4 destination
// rewritten to dip and the header checksum recomputed (bytes 10-11 and
// 16-19 may differ; every other byte must match).
func sameExceptDst(got, sent []byte, dip packet.Addr) bool {
	if len(got) != len(sent) || len(got) < 20 {
		return false
	}
	if binary.BigEndian.Uint32(got[16:20]) != uint32(dip) {
		return false
	}
	for i := range got {
		if (i >= 10 && i < 12) || (i >= 16 && i < 20) {
			continue
		}
		if got[i] != sent[i] {
			return false
		}
	}
	return ipChecksumOK(got)
}

// ipipTo reports whether frame payload is an IP-in-IP packet addressed to
// host whose inner packet is byte-identical to sent.
func ipipTo(outer []byte, host packet.Addr, sent []byte) bool {
	if len(outer) < 20 || outer[0]>>4 != 4 || outer[9] != packet.ProtoIPIP {
		return false
	}
	ihl := int(outer[0]&0x0f) * 4
	if len(outer) < ihl || !ipChecksumOK(outer) {
		return false
	}
	if binary.BigEndian.Uint32(outer[16:20]) != uint32(host) {
		return false
	}
	if int(binary.BigEndian.Uint16(outer[2:4])) != len(outer) {
		return false
	}
	inner := outer[ihl:]
	if len(inner) != len(sent) {
		return false
	}
	for i := range inner {
		if inner[i] != sent[i] {
			return false
		}
	}
	return true
}

// checker counts output-check failures and keeps the first few messages.
// fail is called only on the failure path, so the passing path allocates
// nothing.
type checker struct {
	failures int
	msgs     []string
}

func (c *checker) fail(format string, args ...any) {
	c.failures++
	if len(c.msgs) < 8 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return c.failures == 0 }
