package sim

import (
	"time"

	"robuststore/internal/env"
)

// NetConfig models the cluster interconnect of §5.1: all nodes on one
// 1 Gbps Ethernet switch.
type NetConfig struct {
	// BaseLatency is the one-way propagation + switching delay.
	// Default 120 µs (typical LAN RTT ≈ 0.25 ms).
	BaseLatency time.Duration

	// Bandwidth is the per-node NIC bandwidth in bytes/second, charged
	// as serialization delay on the sender. Default 1 Gbps.
	Bandwidth float64

	// SendOverhead is a fixed per-message cost on the sender NIC
	// (marshalling + syscall); a broadcast to k peers serializes k of
	// these. Default 0.
	SendOverhead time.Duration

	// Jitter adds a uniform random delay in [0, Jitter*BaseLatency).
	// Default 0.5.
	Jitter float64
}

const defaultMessageSize = 512

func (nc NetConfig) withDefaults() NetConfig {
	if nc.BaseLatency == 0 {
		nc.BaseLatency = 120 * time.Microsecond
	}
	if nc.Bandwidth == 0 {
		nc.Bandwidth = 125e6 // 1 Gbps in bytes/second
	}
	if nc.Jitter == 0 {
		nc.Jitter = 0.5
	}
	return nc
}

// sizeOf returns the modeled wire size of a message: its WireSize when it
// states one, else the conservative defaultMessageSize.
func sizeOf(msg env.Message) int64 {
	if s, ok := msg.(interface{ WireSize() int64 }); ok {
		return s.WireSize()
	}
	return defaultMessageSize
}

func (nc NetConfig) perByte() float64 {
	return float64(time.Second) / nc.Bandwidth
}
