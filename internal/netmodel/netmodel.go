// Package netmodel provides communication cost models for the
// message-passing simulator: the Hockney (latency-bandwidth) model, a
// LogGOPS-style model with explicit per-message CPU overheads, and a
// hierarchical wrapper that selects different parameters for intra-socket,
// intra-node and inter-node rank pairs.
//
// A cost model answers two questions about a point-to-point message:
//
//   - how long the wire transfer takes (Transfer), and
//   - how much CPU time the sender/receiver spend on the message (overheads).
//
// It also decides which MPI protocol a message of a given size uses
// (eager vs. rendezvous), via the eager limit.
package netmodel

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Protocol is the MPI transfer protocol selected for a message.
type Protocol int

const (
	// Eager: the message is buffered at the sender/receiver; the send
	// completes locally without a handshake.
	Eager Protocol = iota
	// Rendezvous: the transfer requires a handshake; the send cannot
	// complete before the matching receive is posted.
	Rendezvous
)

func (p Protocol) String() string {
	switch p {
	case Eager:
		return "eager"
	case Rendezvous:
		return "rendezvous"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Model is a point-to-point communication cost model.
type Model interface {
	// Transfer returns the wire time for a message of the given size
	// between the two ranks.
	Transfer(from, to int, bytes int) sim.Time
	// SendOverhead returns CPU time the sender spends injecting the
	// message (LogGOPS "o" plus per-byte "O").
	SendOverhead(from, to int, bytes int) sim.Time
	// RecvOverhead returns CPU time the receiver spends absorbing the
	// message.
	RecvOverhead(from, to int, bytes int) sim.Time
	// ProtocolFor returns the protocol used for a message of this size.
	ProtocolFor(from, to int, bytes int) Protocol
}

// Hockney is the classic alpha-beta model: T(s) = Latency + s/Bandwidth.
// Overheads are zero; the protocol switches at EagerLimit bytes.
// This is the "simulated system" reference used for Fig. 8 (the paper uses
// a LogGOPSim variant implementing a simple Hockney model).
type Hockney struct {
	Latency    sim.Time // alpha, seconds
	Bandwidth  float64  // beta, bytes per second
	EagerLimit int      // messages strictly larger than this use rendezvous
}

// NewHockney validates and builds a Hockney model.
func NewHockney(latency sim.Time, bandwidth float64, eagerLimit int) (*Hockney, error) {
	if !sim.NonNegative(latency) {
		return nil, fmt.Errorf("netmodel: negative or non-finite latency %v", latency)
	}
	if !sim.Positive(bandwidth) {
		return nil, fmt.Errorf("netmodel: non-positive or non-finite bandwidth %g", bandwidth)
	}
	if eagerLimit < 0 {
		return nil, fmt.Errorf("netmodel: negative eager limit %d", eagerLimit)
	}
	return &Hockney{Latency: latency, Bandwidth: bandwidth, EagerLimit: eagerLimit}, nil
}

// Transfer implements Model.
func (h *Hockney) Transfer(_, _ int, bytes int) sim.Time {
	return h.Latency + sim.Time(float64(bytes)/h.Bandwidth)
}

// SendOverhead implements Model; the pure Hockney model has none.
func (h *Hockney) SendOverhead(_, _ int, _ int) sim.Time { return 0 }

// RecvOverhead implements Model; the pure Hockney model has none.
func (h *Hockney) RecvOverhead(_, _ int, _ int) sim.Time { return 0 }

// ProtocolFor implements Model.
func (h *Hockney) ProtocolFor(_, _ int, bytes int) Protocol {
	if bytes <= h.EagerLimit {
		return Eager
	}
	return Rendezvous
}

// LogGOPS is a LogGOPS-flavored model: fixed per-message latency L, fixed
// per-message CPU overhead o on each side, per-byte gap G (inverse
// bandwidth) and per-byte overhead O. The "P" (process count) and "S"
// (synchronization) parameters of full LogGOPS live in the simulator
// itself, not the cost model.
type LogGOPS struct {
	L          sim.Time // wire latency per message
	OSend      sim.Time // per-message CPU overhead, sender
	ORecv      sim.Time // per-message CPU overhead, receiver
	G          sim.Time // per-byte gap (inverse asymptotic bandwidth)
	OByte      sim.Time // per-byte CPU overhead (memory copies)
	EagerLimit int
}

// NewLogGOPS validates and builds a LogGOPS model.
func NewLogGOPS(l, oSend, oRecv, g, oByte sim.Time, eagerLimit int) (*LogGOPS, error) {
	for _, v := range []sim.Time{l, oSend, oRecv, g, oByte} {
		if !sim.NonNegative(v) {
			return nil, fmt.Errorf("netmodel: negative or non-finite LogGOPS parameter")
		}
	}
	if eagerLimit < 0 {
		return nil, fmt.Errorf("netmodel: negative eager limit %d", eagerLimit)
	}
	return &LogGOPS{L: l, OSend: oSend, ORecv: oRecv, G: g, OByte: oByte, EagerLimit: eagerLimit}, nil
}

// Transfer implements Model.
func (m *LogGOPS) Transfer(_, _ int, bytes int) sim.Time {
	return m.L + sim.Time(float64(bytes))*m.G
}

// SendOverhead implements Model.
func (m *LogGOPS) SendOverhead(_, _ int, bytes int) sim.Time {
	return m.OSend + sim.Time(float64(bytes))*m.OByte
}

// RecvOverhead implements Model.
func (m *LogGOPS) RecvOverhead(_, _ int, bytes int) sim.Time {
	return m.ORecv + sim.Time(float64(bytes))*m.OByte
}

// ProtocolFor implements Model.
func (m *LogGOPS) ProtocolFor(_, _ int, bytes int) Protocol {
	if bytes <= m.EagerLimit {
		return Eager
	}
	return Rendezvous
}

// Hierarchical selects one of three inner models depending on the locality
// class of the communicating rank pair. This models the paper's observation
// that intra-socket, inter-socket and inter-node links have very different
// latency/bandwidth characteristics.
type Hierarchical struct {
	Locator     topology.Locator
	IntraSocket Model
	IntraNode   Model
	InterNode   Model
}

// NewHierarchical validates and builds a hierarchical model.
func NewHierarchical(loc topology.Locator, intraSocket, intraNode, interNode Model) (*Hierarchical, error) {
	if loc == nil {
		return nil, fmt.Errorf("netmodel: nil locator")
	}
	if intraSocket == nil || intraNode == nil || interNode == nil {
		return nil, fmt.Errorf("netmodel: nil inner model")
	}
	return &Hierarchical{Locator: loc, IntraSocket: intraSocket, IntraNode: intraNode, InterNode: interNode}, nil
}

func (h *Hierarchical) pick(from, to int) Model {
	switch topology.Classify(h.Locator, from, to) {
	case topology.IntraSocket:
		return h.IntraSocket
	case topology.IntraNode:
		return h.IntraNode
	default:
		return h.InterNode
	}
}

// Transfer implements Model.
func (h *Hierarchical) Transfer(from, to int, bytes int) sim.Time {
	return h.pick(from, to).Transfer(from, to, bytes)
}

// SendOverhead implements Model.
func (h *Hierarchical) SendOverhead(from, to int, bytes int) sim.Time {
	return h.pick(from, to).SendOverhead(from, to, bytes)
}

// RecvOverhead implements Model.
func (h *Hierarchical) RecvOverhead(from, to int, bytes int) sim.Time {
	return h.pick(from, to).RecvOverhead(from, to, bytes)
}

// ProtocolFor implements Model.
func (h *Hierarchical) ProtocolFor(from, to int, bytes int) Protocol {
	return h.pick(from, to).ProtocolFor(from, to, bytes)
}

// String labels the model for sweep tables and reports.
func (h *Hockney) String() string {
	return fmt.Sprintf("hockney:lat=%s:bw=%s:eager=%d", sim.FormatDuration(h.Latency), FormatRate(h.Bandwidth), h.EagerLimit)
}

// String labels the model for sweep tables and reports.
func (m *LogGOPS) String() string {
	bw := "inf"
	if m.G > 0 {
		bw = FormatRate(1 / float64(m.G))
	}
	return fmt.Sprintf("loggops:lat=%s:o=%s/%s:bw=%s:eager=%d",
		sim.FormatDuration(m.L), sim.FormatDuration(m.OSend), sim.FormatDuration(m.ORecv), bw, m.EagerLimit)
}

// String labels the model for sweep tables and reports.
func (h *Hierarchical) String() string {
	return fmt.Sprintf("hier(%v | %v | %v)", h.IntraSocket, h.IntraNode, h.InterNode)
}

// FormatRate renders a byte rate with the largest decimal unit that
// keeps the mantissa >= 1, in the spelling the machine flag parser
// accepts back ("6.8GB/s"). Shared by every layer that labels
// bandwidths (model strings, machine specs, sweep axes).
func FormatRate(bw float64) string {
	switch {
	case bw >= 1e12:
		return fmtMantissa(bw/1e12) + "TB/s"
	case bw >= 1e9:
		return fmtMantissa(bw/1e9) + "GB/s"
	case bw >= 1e6:
		return fmtMantissa(bw/1e6) + "MB/s"
	case bw >= 1e3:
		return fmtMantissa(bw/1e3) + "KB/s"
	default:
		return fmtMantissa(bw) + "B/s"
	}
}

func fmtMantissa(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// Interface checks.
var (
	_ Model = (*Hockney)(nil)
	_ Model = (*LogGOPS)(nil)
	_ Model = (*Hierarchical)(nil)
)
