package rpc

import "encoding/binary"

// Batch op codes mark a batched request: one wire message carrying several
// application requests (§4.3, Fig. 6 / Fig. 19). A batch containing at least
// one write travels as opBatch and engages the durability machinery; a
// read-only batch travels as opBatchRO and must not — "RDMA Flush primitives
// are only needed for a small portion of RDMA write operations" (§5.5).
const (
	opBatch   Op = 200
	opBatchRO Op = 201
)

// isBatchOp reports whether op is a batch frame.
func isBatchOp(op Op) bool { return op == opBatch || op == opBatchRO }

// makeBatchFrame builds the enclosing wire request for a batch. The frame's
// payload serializes the constituent requests back-to-back, so a batch entry
// recovered from the redo log can be replayed after a crash even though the
// connection's volatile batch table died with the process. Batches whose
// write payloads are synthetic (timing-only) stay unmaterialized and are —
// like all synthetic traffic — not recoverable by design.
func makeBatchFrame(reqs []*Request) (*Request, bool) {
	total := 0
	hasWrite := false
	material := true
	for _, r := range reqs {
		total += reqWireBytes(r)
		if r.Op == OpWrite {
			hasWrite = true
			if len(r.Payload) != r.Size {
				material = false
			}
		}
	}
	var body []byte
	if material {
		body = make([]byte, 0, total)
		for _, r := range reqs {
			body = append(body, encodeReq(0, r)...)
		}
	}
	op := opBatch
	if !hasWrite {
		op = opBatchRO
	}
	return &Request{Op: op, Size: total, Key: uint64(len(reqs)), Payload: body}, hasWrite
}

// decodeBatch reconstructs a batch's constituent requests from the frame
// body (the recovery path; the live path uses the volatile stash).
func decodeBatch(body []byte) []*Request {
	var out []*Request
	for off := 0; off+reqHeaderBytes <= len(body); {
		op := Op(body[off+24])
		n := reqWireBytes(&Request{Op: op, Size: int(binary.LittleEndian.Uint32(body[off+16:]))})
		if off+n > len(body) {
			break
		}
		_, r := decodeReq(body[off : off+n])
		out = append(out, r)
		off += n
	}
	return out
}

// stash registers a batch's constituent requests under seq.
func (c *conn) stash(seq uint64, reqs []*Request) {
	if c.batches == nil {
		c.batches = make(map[uint64][]*Request)
	}
	c.batches[seq] = reqs
}

// takeBatch retrieves and forgets the batch stashed under seq.
func (c *conn) takeBatch(seq uint64) []*Request {
	reqs := c.batches[seq]
	delete(c.batches, seq)
	return reqs
}

// batchReqs resolves a batch frame to its constituent requests: the volatile
// stash on the live path, the serialized frame body after a crash.
func (c *conn) batchReqs(seq uint64, req *Request) []*Request {
	if reqs := c.takeBatch(seq); reqs != nil {
		return reqs
	}
	return decodeBatch(req.Payload)
}
