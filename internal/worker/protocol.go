package worker

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"dgcl/internal/comm/wire"
)

// The supervised membership protocol (DESIGN.md §15). Every control-plane
// message is one tagged envelope, length-prefixed JSON over the coordinator
// connection (wire.WriteControl / wire.ReadControl), and every message after
// the join carries the membership generation it belongs to: the coordinator
// bumps the generation on each membership change (death, leave, rejoin,
// degrade), and frames stamped with a stale generation are fenced — ignored,
// never applied — so a worker from a previous incarnation of the run cannot
// corrupt state.
//
// Lifecycle, per generation:
//
//	worker → join{proto[, run, plan, rejoin]}
//	coord  → prepare{gen, run, spec, you, ranks, down, beat}   (or reject{code})
//	worker → ready{gen, addr, plan, ckpts}
//	coord  → mesh{gen, nodes, start}
//	worker → beat{gen, epoch[, loss]}...   then one of:
//	worker → result{gen, epoch, sum} | fault{gen, epoch, blame} | leave{gen, epoch}
//	coord  → bye{gen, ok[, err]}           (or the next generation's prepare)

// ProtoVersion is the control-plane protocol version. The join message leads
// with it, and a coordinator speaking a different version rejects the worker
// with a typed ProtocolError instead of a decode failure mid-handshake. It
// also covers the data-plane transfer layout — which transfer keys each
// collective's frames carry — since binaries that compile the same plan into
// different layouts would otherwise mesh and then desync at the first
// collective whose layout differs (version 3: the backward allgather's layout
// is the forward one reversed). It covers, for the same reason, which
// collectives an epoch runs (version 4: only a trainer's first epoch runs the
// layer-0 allgather).
const ProtoVersion = 4

// Message types for the ctrlMsg envelope.
const (
	mtJoin    = "join"
	mtReject  = "reject"
	mtPrepare = "prepare"
	mtReady   = "ready"
	mtMesh    = "mesh"
	mtBeat    = "beat"
	mtFault   = "fault"
	mtLeave   = "leave"
	mtResult  = "result"
	mtBye     = "bye"
)

// Reject codes carried by ProtocolError (and the reject message).
const (
	CodeProtoMismatch = "proto-mismatch"
	CodeRunMismatch   = "run-mismatch"
	CodePlanMismatch  = "plan-mismatch"
	CodeFenced        = "generation-fenced"
	CodeRunFull       = "run-full"
)

// ProtocolError is a typed control-plane rejection: the coordinator sends the
// code over the wire and the worker surfaces it as this error, so callers can
// errors.Is against the sentinel for each code instead of string-matching a
// decode failure.
type ProtocolError struct {
	Code   string
	Detail string
}

func (e *ProtocolError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("worker: protocol: %s", e.Code)
	}
	return fmt.Sprintf("worker: protocol: %s: %s", e.Code, e.Detail)
}

// Is matches any ProtocolError with the same code (a code-only target acts as
// a sentinel; its empty Detail matches every detail).
func (e *ProtocolError) Is(target error) bool {
	t, ok := target.(*ProtocolError)
	return ok && t.Code == e.Code && (t.Detail == "" || t.Detail == e.Detail)
}

// Typed rejection sentinels for errors.Is.
var (
	ErrProtoMismatch = &ProtocolError{Code: CodeProtoMismatch}
	ErrRunMismatch   = &ProtocolError{Code: CodeRunMismatch}
	ErrPlanMismatch  = &ProtocolError{Code: CodePlanMismatch}
	ErrFenced        = &ProtocolError{Code: CodeFenced}
	ErrRunFull       = &ProtocolError{Code: CodeRunFull}
)

// ctrlMsg is the tagged control-plane envelope. Fields are a union over the
// message types; T selects which are meaningful. Gen is the membership
// generation fence and is present on every message after the join.
type ctrlMsg struct {
	T   string `json:"t"`
	Gen uint64 `json:"gen,omitempty"`

	// join (worker → coordinator). A rejoining worker presents the run id
	// and plan digest it persisted at its first join.
	Proto  int    `json:"proto,omitempty"`
	RunID  string `json:"run,omitempty"` // also on prepare (coordinator → worker)
	Rejoin bool   `json:"rejoin,omitempty"`
	Plan   uint64 `json:"plan,omitempty"` // join (rejoin) + ready

	// reject / bye / result
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
	OK   bool   `json:"ok,omitempty"`

	// prepare (coordinator → worker)
	Spec  *Spec `json:"spec,omitempty"`
	You   int   `json:"you,omitempty"`   // node id within this generation
	Ranks []int `json:"ranks,omitempty"` // external device ids this member hosts
	Down  []int `json:"down,omitempty"`  // cumulative removed external devices
	Beat  int64 `json:"beat,omitempty"`  // heartbeat interval, nanoseconds

	// ready (worker → coordinator)
	Addr  string `json:"addr,omitempty"`  // fresh data listener for this generation
	Ckpts []int  `json:"ckpts,omitempty"` // intact checkpoint epochs, ascending

	// mesh (coordinator → worker)
	Nodes []wire.NodeSpec `json:"nodes,omitempty"`
	Start int             `json:"start,omitempty"` // common resume epoch

	// beat / fault / leave / result
	Epoch    int       `json:"epoch,omitempty"` // completed epoch count
	Progress bool      `json:"progress,omitempty"`
	Loss     float64   `json:"loss,omitempty"`   // beat with Progress: loss of epoch Epoch-1
	Blame    []int     `json:"blame,omitempty"`  // fault: devices the data plane implicated (advisory)
	Losses   []float64 `json:"losses,omitempty"` // result: this process's per-epoch losses
	Sum      uint64    `json:"sum,omitempty"`    // result: final model digest
}

// Caps applied before a decoded envelope is believed. wire.ReadControl
// already bounds the raw message at 1 MiB; these bound the decoded shapes so
// no later loop trusts an attacker-sized list.
const (
	maxCtrlString = 256
	maxCtrlErr    = 1 << 12
	maxCtrlRanks  = 1 << 16
	maxCtrlNodes  = 1 << 12
	maxCtrlCkpts  = 1 << 10
	maxCtrlLosses = 1 << 20
)

// validCtrlTypes is the closed set of envelope tags.
var validCtrlTypes = map[string]bool{
	mtJoin: true, mtReject: true, mtPrepare: true, mtReady: true, mtMesh: true,
	mtBeat: true, mtFault: true, mtLeave: true, mtResult: true, mtBye: true,
}

// decodeCtrl parses and validates one control envelope from raw JSON. It is
// the single choke point for untrusted control-plane input (and the fuzz
// target), enforcing the type tag and every list/string cap before the
// message reaches protocol logic.
func decodeCtrl(data []byte) (ctrlMsg, error) {
	var m ctrlMsg
	if err := json.Unmarshal(data, &m); err != nil {
		return ctrlMsg{}, fmt.Errorf("worker: control decode: %w", err)
	}
	if !validCtrlTypes[m.T] {
		return ctrlMsg{}, fmt.Errorf("worker: control message type %q unknown", m.T)
	}
	capStr := func(name, s string) error {
		if len(s) > maxCtrlString {
			return fmt.Errorf("worker: control %s field %d bytes exceeds cap %d", name, len(s), maxCtrlString)
		}
		return nil
	}
	capList := func(name string, n int) error {
		if n > maxCtrlRanks {
			return fmt.Errorf("worker: control %s list %d entries exceeds cap %d", name, n, maxCtrlRanks)
		}
		return nil
	}
	for _, err := range []error{
		capStr("run", m.RunID), capStr("code", m.Code), capStr("addr", m.Addr),
		capList("ranks", len(m.Ranks)), capList("down", len(m.Down)), capList("blame", len(m.Blame)),
	} {
		if err != nil {
			return ctrlMsg{}, err
		}
	}
	if len(m.Err) > maxCtrlErr {
		return ctrlMsg{}, fmt.Errorf("worker: control err field %d bytes exceeds cap %d", len(m.Err), maxCtrlErr)
	}
	if len(m.Nodes) > maxCtrlNodes {
		return ctrlMsg{}, fmt.Errorf("worker: control node table %d entries exceeds cap %d", len(m.Nodes), maxCtrlNodes)
	}
	for _, sp := range m.Nodes {
		if len(sp.Addr) > maxCtrlString {
			return ctrlMsg{}, fmt.Errorf("worker: control node addr %d bytes exceeds cap %d", len(sp.Addr), maxCtrlString)
		}
		if len(sp.Ranks) > maxCtrlRanks {
			return ctrlMsg{}, fmt.Errorf("worker: control node rank list %d entries exceeds cap %d", len(sp.Ranks), maxCtrlRanks)
		}
	}
	if len(m.Ckpts) > maxCtrlCkpts {
		return ctrlMsg{}, fmt.Errorf("worker: control checkpoint list %d entries exceeds cap %d", len(m.Ckpts), maxCtrlCkpts)
	}
	if len(m.Losses) > maxCtrlLosses {
		return ctrlMsg{}, fmt.Errorf("worker: control loss list %d entries exceeds cap %d", len(m.Losses), maxCtrlLosses)
	}
	if m.Spec != nil {
		if err := capStr("spec dataset", m.Spec.Dataset); err != nil {
			return ctrlMsg{}, err
		}
		if err := capStr("spec model", m.Spec.Model); err != nil {
			return ctrlMsg{}, err
		}
	}
	return m, nil
}

// readCtrl reads one envelope from conn under an armed deadline and runs it
// through the decodeCtrl validation choke point.
func readCtrl(conn net.Conn, timeout time.Duration) (ctrlMsg, error) {
	var raw json.RawMessage
	if err := wire.ReadControl(conn, &raw, timeout); err != nil {
		return ctrlMsg{}, err
	}
	return decodeCtrl(raw)
}

// ctrlConn serializes control-plane writes on one shared connection: the
// worker's epoch loop (progress beats, results) and its background heartbeat
// goroutine both write here.
type ctrlConn struct {
	conn net.Conn
	mu   sync.Mutex
}

// send writes one envelope under the write mutex with an armed deadline.
func (c *ctrlConn) send(m ctrlMsg) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//dgclvet:ignore lockdisc mu exists to serialize whole-message writes on the shared control conn (heartbeat goroutine vs epoch loop); WriteControl arms a write deadline bounding the hold, and no other lock nests inside mu
	return wire.WriteControl(c.conn, m, controlTimeout)
}
