package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"prdma/internal/fabric"
	"prdma/internal/host"
	"prdma/internal/pmem"
	"prdma/internal/rnic"
	"prdma/internal/sim"
)

// lifetimeKeys is how many objects the reply-lifetime tests spread their
// calls over.
const lifetimeKeys = 8

// contents fills b with the bytes of version ver of key: the key and the
// version up front, then a pattern of both, so a reply that carries any
// other object, version or reuse of a buffer differs somewhere.
func contents(b []byte, key uint64, ver uint32) []byte {
	for i := range b {
		b[i] = byte(i*131 + int(ver)*17 + int(key)*7)
	}
	if len(b) >= 12 {
		binary.LittleEndian.PutUint64(b, key)
		binary.LittleEndian.PutUint32(b[8:], ver)
	}
	return b
}

// replySize is the object size the lifetime tests read on kind: 64 KiB,
// or 1 KiB on FaSST, whose UD MTU cannot carry more.
func replySize(kind Kind) int {
	if kind == FaSST {
		return 1 << 10
	}
	return 64 << 10
}

// lifetimeBench is a one-client one-server deployment on one kernel, with
// the fault injector installed when spec is non-nil.
type lifetimeBench struct {
	k   *sim.Kernel
	net *fabric.Network
	c   Client
}

func newLifetimeBench(t *testing.T, kind Kind, size int, spec *fabric.FaultSpec) *lifetimeBench {
	t.Helper()
	k := sim.New()
	net := fabric.New(k, fabric.DefaultParams(), 7)
	if spec != nil {
		net.SetInjector(fabric.NewInjector(*spec, 11))
	}
	np := rnic.DefaultParams()
	cli := host.New(k, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
	srv := host.New(k, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
	store, err := NewStore(srv, lifetimeKeys, size)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	return &lifetimeBench{k: k, net: net, c: New(kind, cli, NewServer(srv, store, cfg), cfg)}
}

// write stores version ver of key and waits until the server has applied
// it, so a later read must return it.
func write(p *sim.Proc, c Client, key uint64, ver uint32, size int) error {
	r, err := c.Call(p, &Request{Op: OpWrite, Key: key, Size: size, Payload: contents(make([]byte, size), key, ver)})
	if err != nil {
		return err
	}
	r.Done.Wait(p)
	return nil
}

// read returns key's contents.
func read(p *sim.Proc, c Client, key uint64, size int) ([]byte, error) {
	r, err := c.Call(p, &Request{Op: OpRead, Key: key, Size: size, Payload: []byte{}})
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// TestReplyDataLifetime pins the documented lifetime of Response.Data: on
// every kind that returns contents on one kernel, a read's Data stays
// byte-identical while RingSlots-1 further reads complete on the same
// client. With one client nothing draws an image between two calls, so
// the image survives the RingSlots-th further read too, and on the pooled
// kinds (every one but FaSST, whose UD replies are fresh) the read after
// that reuses it. Both ends are checked, so a window one reply shorter or
// longer fails.
func TestReplyDataLifetime(t *testing.T) {
	slots := DefaultConfig().RingSlots
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			size := replySize(kind)
			b := newLifetimeBench(t, kind, size, nil)
			var err error
			b.k.Go("driver", func(p *sim.Proc) {
				err = func() error {
					for key := uint64(0); key < lifetimeKeys; key++ {
						if err := write(p, b.c, key, 1, size); err != nil {
							return err
						}
					}
					first, err := read(p, b.c, 0, size)
					if err != nil {
						return err
					}
					want := contents(make([]byte, size), 0, 1)
					if !bytes.Equal(first, want) {
						return fmt.Errorf("first read returned the wrong contents")
					}
					for i := 1; i <= slots+1; i++ {
						key := uint64(1 + i%(lifetimeKeys-1))
						got, err := read(p, b.c, key, size)
						if err != nil {
							return err
						}
						if !bytes.Equal(got, contents(make([]byte, size), key, 1)) {
							return fmt.Errorf("read %d of key %d returned the wrong contents", i, key)
						}
						intact := bytes.Equal(first, want)
						switch {
						case i <= slots && !intact:
							return fmt.Errorf("the first read's Data changed after %d further reads, want intact for %d", i, slots)
						case i == slots+1 && intact && kind != FaSST:
							return fmt.Errorf("the first read's image was not reused after %d further reads", i)
						}
					}
					return nil
				}()
			})
			b.k.Run()
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEngineModeReplyImagesFresh pins that an engine-mode durable
// connection, whose replies are built on the server's kernel, returns a
// fresh image on every read: no two reads share a buffer, and every Data
// is still intact after more than RingSlots further reads.
func TestEngineModeReplyImagesFresh(t *testing.T) {
	const size = 256
	reads := DefaultConfig().RingSlots + 8
	for _, kind := range DurableKinds {
		t.Run(kind.String(), func(t *testing.T) {
			fp := fabric.DefaultParams()
			e := sim.NewEngine(fp.Lookahead(), 1)
			kc, ks := e.NewKernel(), e.NewKernel()
			net := fabric.New(kc, fp, 7)
			np := rnic.DefaultParams()
			cli := host.New(kc, "cli", net, host.DefaultParams(), pmem.DefaultParams(), np)
			srv := host.New(ks, "srv", net, host.DefaultParams(), pmem.DefaultParams(), np)
			store, err := NewStore(srv, lifetimeKeys, size)
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(srv, store, DefaultConfig())
			c := New(kind, cli, s, s.Cfg)
			if c.(*durableClient).pooled {
				t.Fatal("an engine-mode connection is pooled")
			}
			var datas [][]byte
			kc.Go("driver", func(p *sim.Proc) {
				err = func() error {
					for key := uint64(0); key < lifetimeKeys; key++ {
						if err := write(p, c, key, 1, size); err != nil {
							return err
						}
					}
					for i := 0; i < reads; i++ {
						got, err := read(p, c, uint64(i%lifetimeKeys), size)
						if err != nil {
							return err
						}
						datas = append(datas, got)
					}
					return nil
				}()
			})
			e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(datas) != reads {
				t.Fatalf("%d of %d reads completed", len(datas), reads)
			}
			seen := make(map[*byte]int)
			for i, d := range datas {
				if !bytes.Equal(d, contents(make([]byte, size), uint64(i%lifetimeKeys), 1)) {
					t.Fatalf("read %d no longer holds its contents after %d further reads", i, reads-1-i)
				}
				if j, ok := seen[&d[0]]; ok {
					t.Fatalf("reads %d and %d share a reply buffer", j, i)
				}
				seen[&d[0]] = i
			}
		})
	}
}

// TestReplyImagesUnderDuplicateAndReorder runs single-kernel connections
// of both reply transports and both fetch styles under the fabric
// injector's duplicate and reorder adversaries. Every read returns exactly
// the bytes last acked for its key and every call completes with its own
// reply: RC's in-order check drops a duplicated or overtaken reply before
// it is decoded, so a reused image is never read as an old reply; FaSST's
// UD replies are never pooled; and RFP's poll copies only the first
// response to each read into its buffer.
func TestReplyImagesUnderDuplicateAndReorder(t *testing.T) {
	spec := fabric.FaultSpec{Name: "dup+reorder", DupProb: 0.3, DupDelayUS: 20, ReorderProb: 0.2, ReorderMaxUS: 15}
	const ops = 300
	for _, kind := range []Kind{WFlushRPC, FaRM, RFP, FaSST} {
		t.Run(kind.String(), func(t *testing.T) {
			size := replySize(kind)
			b := newLifetimeBench(t, kind, size, &spec)
			var err error
			reads := 0
			b.k.Go("driver", func(p *sim.Proc) {
				err = func() error {
					rng := sim.NewRand(uint64(kind) + 3)
					acked := make([]uint32, lifetimeKeys)
					for key := uint64(0); key < lifetimeKeys; key++ {
						if err := write(p, b.c, key, 1, size); err != nil {
							return err
						}
						acked[key] = 1
					}
					want := make([]byte, size)
					for i := 0; i < ops; i++ {
						key := uint64(rng.Int63n(lifetimeKeys))
						if rng.Float64() < 0.3 {
							if err := write(p, b.c, key, acked[key]+1, size); err != nil {
								return err
							}
							acked[key]++
							continue
						}
						got, err := read(p, b.c, key, size)
						if err != nil {
							return err
						}
						reads++
						if !bytes.Equal(got, contents(want, key, acked[key])) {
							return fmt.Errorf("op %d: read of key %d (acked version %d) returned other bytes", i, key, acked[key])
						}
					}
					return nil
				}()
			})
			b.k.Run()
			if err != nil {
				t.Fatal(err)
			}
			if reads == 0 || b.net.Duplicated == 0 || b.net.Reordered == 0 {
				t.Fatalf("adversaries idle: %d reads, %d duplicated, %d reordered", reads, b.net.Duplicated, b.net.Reordered)
			}
			if kind == FaSST {
				c := b.c.(*sendClient).conn
				if c.pooled || len(c.hdrImgs.free) != 0 || len(c.replies.free) != 0 {
					t.Fatal("a UD connection pooled its replies")
				}
			}
			t.Logf("%s: %d reads, %d messages duplicated, %d reordered", kind, reads, b.net.Duplicated, b.net.Reordered)
		})
	}
}
