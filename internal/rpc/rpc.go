// Package rpc implements the RPC communication models the paper compares
// (§3, Fig. 2) — DaRPC, FaRM, Herd, FaSST, L5, RFP, ScaleRPC, Octopus, LITE
// — and the paper's four durable RPCs built on the RDMA Flush primitives
// (§4): WFlush-RPC, SFlush-RPC, W-RFlush-RPC and S-RFlush-RPC.
//
// Every system is expressed against the rnic verbs layer, running on the
// simulated testbed. A Client is a sender-side handle; Call returns when the
// sender may safely proceed — for traditional RPCs that is the response, for
// durable RPCs it is the moment remote persistence is visible (the paper's
// core contribution: decoupling data persisting from RPC processing).
package rpc

import (
	"fmt"
	"time"

	"prdma/internal/sim"
)

// Op is the application-level operation carried by an RPC.
type Op byte

const (
	// OpRead fetches an object.
	OpRead Op = iota + 1
	// OpWrite stores an object durably.
	OpWrite
	// OpScan reads a range of objects (YCSB workload E).
	OpScan
)

// OpCtrl is a durable control record: it rides the mutating (redo-logged,
// flush-acknowledged) path like OpWrite — its payload is durable in the
// connection's redo log before the server processes it, and it replays
// after a crash — but the caller waits for the processing response, which
// carries result bytes back. Services layered on the durable families (the
// pmpool allocation protocol) use it for metadata operations that must
// both survive a crash and return an answer. The opcode sits in the
// internal range (batch/hotpot frames occupy 200..211).
const OpCtrl Op = 220

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCtrl:
		return "ctrl"
	default:
		return "scan"
	}
}

// Request is one RPC invocation.
type Request struct {
	Op   Op
	Key  uint64
	Size int
	// Payload may be nil: synthetic benchmark traffic that is timed but
	// not materialized.
	Payload []byte
	// ScanLen is the object count for OpScan.
	ScanLen int
}

// Response is the outcome of an RPC.
type Response struct {
	// Data is the object contents for reads (nil for synthetic traffic).
	// It lives in the connection's reply buffer, as a reply lives in its
	// response-ring slot: on a single-kernel RC connection the buffer goes
	// back to the connection once RingSlots further replies have completed
	// on it, and the next reply may overwrite it. A caller that needs the
	// data longer must copy it. Engine-mode (cross-kernel) connections, UD
	// and UC replies (FaSST, Herd), Handler replies (NewReply) and the
	// case study's one-sided reads return a fresh buffer each time.
	Data []byte
	// IssuedAt is when the sender started the call.
	IssuedAt sim.Time
	// ReadyAt is when the sender could proceed: the quantity the paper's
	// latency plots report.
	ReadyAt sim.Time
	// DurableAt is when the written data was persistent in the remote PM.
	// Zero means not yet known when the Response was assembled (on the
	// durable-RPC read path the transport acknowledgement can trail the
	// response); Durable backfills it on completion. For traditional RPCs
	// it is the reply time — durability is simply whatever the reply
	// implies, the deficiency the paper's durable RPCs fix.
	DurableAt sim.Time
	// Durable resolves when the request's durability (transport)
	// acknowledgement arrives and backfills DurableAt. Traditional RPCs
	// complete it at the reply.
	Durable *sim.Future[sim.Time]
	// Done resolves when the full RPC (processing included) finished;
	// durable-RPC writes resolve it after Call returns.
	Done *sim.Future[sim.Time]
}

// Client issues RPCs from one sender host.
type Client interface {
	// Call blocks until the sender may proceed (see Response.ReadyAt).
	Call(p *sim.Proc, req *Request) (*Response, error)
	// Kind identifies the RPC system.
	Kind() Kind
	// Close tears down client-side resources.
	Close()
}

// BatchClient is implemented by systems that support batching several
// requests into one network interaction (§4.3, Fig. 19).
type BatchClient interface {
	Client
	// CallBatch issues reqs as one batch and returns when the sender may
	// proceed past the whole batch.
	CallBatch(p *sim.Proc, reqs []*Request) ([]*Response, error)
}

// Kind enumerates the RPC systems.
type Kind int

const (
	// Traditional systems (Table 1 / Fig. 2).
	L5 Kind = iota
	RFP
	FaSST
	Octopus
	FaRM
	ScaleRPC
	DaRPC
	Herd
	LITE
	// Durable RPCs (§4.2 / Fig. 4).
	SRFlushRPC
	SFlushRPC
	WRFlushRPC
	WFlushRPC
)

// Kinds lists all systems in the paper's plotting order.
var Kinds = []Kind{L5, RFP, FaSST, Octopus, FaRM, ScaleRPC, DaRPC, SRFlushRPC, SFlushRPC, WRFlushRPC, WFlushRPC}

// WriteKinds are the systems built on RDMA write primitives (the paper
// compares WFlush/W-RFlush against these).
var WriteKinds = []Kind{L5, RFP, Octopus, FaRM, ScaleRPC, WRFlushRPC, WFlushRPC}

// SendKinds are the systems built on RDMA send primitives.
var SendKinds = []Kind{FaSST, DaRPC, SRFlushRPC, SFlushRPC}

// DurableKinds are the paper's contributions.
var DurableKinds = []Kind{SRFlushRPC, SFlushRPC, WRFlushRPC, WFlushRPC}

func (k Kind) String() string {
	switch k {
	case L5:
		return "L5"
	case RFP:
		return "RFP"
	case FaSST:
		return "FaSST"
	case Octopus:
		return "Octopus"
	case FaRM:
		return "FaRM"
	case ScaleRPC:
		return "ScaleRPC"
	case DaRPC:
		return "DaRPC"
	case Herd:
		return "Herd"
	case LITE:
		return "LITE"
	case SRFlushRPC:
		return "S-RFlush-RPC"
	case SFlushRPC:
		return "SFlush-RPC"
	case WRFlushRPC:
		return "W-RFlush-RPC"
	case WFlushRPC:
		return "WFlush-RPC"
	case OctopusWFlush:
		return "Octopus+WFlush"
	case Hotpot:
		return "Hotpot"
	case Mojim:
		return "Mojim"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Durable reports whether k is one of the paper's durable RPCs.
func (k Kind) Durable() bool {
	switch k {
	case SRFlushRPC, SFlushRPC, WRFlushRPC, WFlushRPC:
		return true
	}
	return false
}

// SendBased reports whether k transfers data with RDMA send.
func (k Kind) SendBased() bool {
	switch k {
	case DaRPC, FaSST, SRFlushRPC, SFlushRPC:
		return true
	}
	return false
}

// Config tunes an RPC deployment.
type Config struct {
	// ProcessingTime is the injected per-request processing cost: 0 for
	// the paper's "light load", 100 µs for "heavy load" (§5.2).
	ProcessingTime time.Duration
	// Workers is the server worker-pool size for asynchronous processing
	// of durable RPCs.
	Workers int
	// RingSlots and SlotSize shape the per-connection message rings.
	RingSlots int
	SlotSize  int
	// LogBytes sizes the per-connection redo log ring.
	LogBytes int64
	// ThrottleOutstanding is the §4.2 back-pressure threshold: a durable
	// RPC sender stalls while this many requests are unprocessed.
	ThrottleOutstanding int
	// ScaleRPCProcessPhases is the number of process-phase calls per
	// warm-up in ScaleRPC (the paper interleaves 1:100).
	ScaleRPCProcessPhases int
	// RFPPollInterval is RFP's sender-side result polling period.
	RFPPollInterval time.Duration
	// LITESyscall is LITE's extra kernel-crossing cost per operation.
	LITESyscall time.Duration
}

// DefaultConfig returns the paper-matched defaults.
func DefaultConfig() Config {
	return Config{
		ProcessingTime:        0,
		Workers:               3,
		RingSlots:             64,
		SlotSize:              64*1024 + 256,
		LogBytes:              64 << 20,
		ThrottleOutstanding:   128,
		ScaleRPCProcessPhases: 100,
		RFPPollInterval:       2 * time.Microsecond,
		LITESyscall:           1500 * time.Nanosecond,
	}
}
