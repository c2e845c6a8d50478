// Package pmpool implements a crash-safe remote persistent-memory pool —
// RPMP-style memory disaggregation — on top of the durable RPC families:
// clients Alloc/Free remote PM through a malloc/free-shaped API and
// Write/Read allocation extents with durable-on-return semantics, while the
// server CPU stays off the data-persistence path (the paper's decoupling).
//
// Allocation metadata is a durable shadow in server PM: one slab-class word
// per slab and one owner word per 64-byte unit, each updated with a single
// failure-atomic 8-byte persist at apply time, *before* the request's redo
// log entry is consumed. A crash at any point therefore leaves the pool
// reconstructible: recovery scans the shadow to rebuild the slab allocator
// (pmem.Slabs.Adopt) and the id index, then redo-log replay re-applies the
// unconsumed tail idempotently — an alloc whose id is already owned dedups
// to the same address, a free whose id is already gone is a no-op. Leases
// renewed on a sim timer bound orphaned allocations: a client that vanishes
// stops renewing, and the server reclaims its slots after the TTL.
package pmpool

import (
	"encoding/binary"
	"fmt"

	"prdma/internal/rpc"
)

// Control record opcodes (first byte of an OpCtrl payload).
const (
	ctrlAlloc = 1
	ctrlFree  = 2
	ctrlRenew = 3
)

// Control response status codes.
const (
	statusOK       = 0
	statusFull     = 1 // allocator exhausted
	statusBad      = 2 // malformed or unknown record
	statusTooLarge = 3 // request exceeds the slab size
)

// ctrlReqBytes is the fixed alloc/free record: op(1) pad(7) id(8) size(8).
const ctrlReqBytes = 24

// ctrlRespBytes is the fixed result record: status(1) pad(7) addr(8) class(8).
const ctrlRespBytes = 24

// encodeAlloc builds the OpCtrl request for Alloc(id, size).
func encodeAlloc(id uint64, size int64) *rpc.Request {
	b := make([]byte, ctrlReqBytes)
	b[0] = ctrlAlloc
	binary.LittleEndian.PutUint64(b[8:], id)
	binary.LittleEndian.PutUint64(b[16:], uint64(size))
	return &rpc.Request{Op: rpc.OpCtrl, Key: id, Size: len(b), Payload: b}
}

// encodeFree builds the OpCtrl request for Free(id).
func encodeFree(id uint64) *rpc.Request {
	b := make([]byte, ctrlReqBytes)
	b[0] = ctrlFree
	binary.LittleEndian.PutUint64(b[8:], id)
	return &rpc.Request{Op: rpc.OpCtrl, Key: id, Size: len(b), Payload: b}
}

// encodeRenew builds the OpCtrl lease-renewal record carrying ids (one
// batched record renews every live lease a client holds on one server).
func encodeRenew(ids []uint64) *rpc.Request {
	b := make([]byte, 16+8*len(ids))
	b[0] = ctrlRenew
	binary.LittleEndian.PutUint64(b[8:], uint64(len(ids)))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(b[16+8*i:], id)
	}
	return &rpc.Request{Op: rpc.OpCtrl, Size: len(b), Payload: b}
}

// ctrlResult is a decoded control response.
type ctrlResult struct {
	status byte
	addr   int64
	class  int64
}

// putResult encodes r into b, which must be ctrlRespBytes long.
func putResult(b []byte, r ctrlResult) {
	b[0] = r.status
	clear(b[1:8])
	binary.LittleEndian.PutUint64(b[8:], uint64(r.addr))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.class))
}

func decodeResult(b []byte) (ctrlResult, error) {
	if len(b) < ctrlRespBytes {
		return ctrlResult{}, fmt.Errorf("pmpool: short control response (%d bytes)", len(b))
	}
	return ctrlResult{
		status: b[0],
		addr:   int64(binary.LittleEndian.Uint64(b[8:])),
		class:  int64(binary.LittleEndian.Uint64(b[16:])),
	}, nil
}

// encodeWrite builds the durable write into allocation id at off. The
// offset rides the ScanLen header field (unused by writes), so the request
// needs no payload framing beyond the raw data.
func encodeWrite(id uint64, off int64, data []byte) *rpc.Request {
	return &rpc.Request{Op: rpc.OpWrite, Key: id, Size: len(data), ScanLen: int(off), Payload: data}
}

// encodeRead builds the read of n bytes from allocation id at off. The
// empty (non-nil) payload marks "real contents wanted" on the wire.
func encodeRead(id uint64, off int64, n int) *rpc.Request {
	return &rpc.Request{Op: rpc.OpRead, Key: id, Size: n, ScanLen: int(off), Payload: []byte{}}
}
