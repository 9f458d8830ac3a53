package schema

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"aeon/internal/cloudstore"
)

// wireFrame is any hot-codec record: the store and migration control frames
// all satisfy it.
type wireFrame interface {
	MarshalWire(dst []byte) ([]byte, error)
	UnmarshalWire(b []byte) error
}

// storeFrameCases are one or more instances of every store and migration
// control frame, covering nil and empty byte values, every collection, and
// both signs of the signed fields. newOut returns an empty decode target of
// the same type.
func storeFrameCases() []struct {
	name   string
	in     wireFrame
	newOut func() wireFrame
} {
	req := func() wireFrame { return &StoreReq{} }
	resp := func() wireFrame { return &StoreResp{} }
	return []struct {
		name   string
		in     wireFrame
		newOut func() wireFrame
	}{
		{"req/get", &StoreReq{Op: "get", Key: "mig/wal/7"}, req},
		{"req/putf", &StoreReq{Op: "putf", Part: 3, Epoch: 9, Key: "k", Value: []byte("v")}, req},
		{"req/put-nil-value", &StoreReq{Op: "put", Key: "k"}, req},
		{"req/put-empty-value", &StoreReq{Op: "put", Key: "k", Value: []byte{}}, req},
		{"req/casf", &StoreReq{Op: "casf", Part: 1, Epoch: 2, Key: "k", Expect: 1 << 40, Value: []byte{0}}, req},
		{"req/putbatch", &StoreReq{Op: "putbatch", Entries: map[string][]byte{
			"a": []byte("x"), "b": nil, "c": {},
		}}, req},
		{"req/deletebatchf", &StoreReq{Op: "deletebatchf", Part: 0, Epoch: 4, Keys: []string{"a", "", "c"}}, req},
		{"req/apply", &StoreReq{Op: "apply", Part: 2, Epoch: 5, Commit: cloudstore.Commit{
			Sets: []cloudstore.KV{{Key: "a", Val: []byte("1"), Ver: 10}, {Key: "b", Ver: 11}, {Key: "c", Val: []byte{}, Ver: 12}},
			Dels: []cloudstore.KD{{Key: "d", Ver: 13}},
		}}, req},
		{"req/negative-part", &StoreReq{Op: "epoch", Part: -1}, req},
		{"resp/version", &StoreResp{Version: 42}, resp},
		{"resp/value", &StoreResp{Value: []byte("payload"), Version: 3}, resp},
		{"resp/empty-value", &StoreResp{Value: []byte{}, Version: 3}, resp},
		{"resp/keys", &StoreResp{Keys: []string{"x/1", "x/2"}}, resp},
		{"resp/err", &StoreResp{Version: 9, Err: "fenced at 9", ErrKind: "store-fenced"}, resp},
		{"migrate", &MigrateReq{Root: 1 << 33, To: 2}, func() wireFrame { return &MigrateReq{} }},
		{"migrate/negative", &MigrateReq{Root: 1, To: -5}, func() wireFrame { return &MigrateReq{} }},
		{"ack/ok", &AckResp{}, func() wireFrame { return &AckResp{} }},
		{"ack/err", &AckResp{Err: "ctx#4: unknown", ErrKind: "unknown-context"}, func() wireFrame { return &AckResp{} }},
		{"query", &TransferQueryReq{Probe: 77, To: 3}, func() wireFrame { return &TransferQueryReq{} }},
		{"query-resp/true", &TransferQueryResp{Committed: true}, func() wireFrame { return &TransferQueryResp{} }},
		{"query-resp/false", &TransferQueryResp{}, func() wireFrame { return &TransferQueryResp{} }},
	}
}

// TestStoreFramesRoundTrip pins every store and migration control frame:
// all fields survive, a nil byte value stays nil and an empty one stays
// empty, and decoded values never alias the frame.
func TestStoreFramesRoundTrip(t *testing.T) {
	for _, tc := range storeFrameCases() {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.in.MarshalWire(nil)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if !IsHotFrame(b) {
				t.Fatalf("frame does not carry the hot magic: % x", b[:2])
			}
			out := tc.newOut()
			if err := out.UnmarshalWire(b); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(out, tc.in) {
				t.Fatalf("got %+v, want %+v", out, tc.in)
			}
			for i := range b {
				b[i] = 0xEE
			}
			if !reflect.DeepEqual(out, tc.in) {
				t.Fatalf("decoded frame aliases its buffer: %+v", out)
			}
		})
	}
}

// TestStoreFramesRejectMalformed feeds every truncation of every valid
// frame, each frame under every other frame's decoder, and seeded garbage
// behind each type header to the decoders: each must fail with an error
// wrapping ErrHotFrame (or, for garbage, possibly decode), never panic.
func TestStoreFramesRejectMalformed(t *testing.T) {
	cases := storeFrameCases()
	for _, tc := range cases {
		b, err := tc.in.MarshalWire(nil)
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		for n := 0; n < len(b); n++ {
			if err := tc.newOut().UnmarshalWire(b[:n]); !errors.Is(err, ErrHotFrame) {
				t.Fatalf("%s truncated to %d of %d bytes: err = %v; want ErrHotFrame", tc.name, n, len(b), err)
			}
		}
		for _, other := range cases {
			if reflect.TypeOf(other.in) == reflect.TypeOf(tc.in) {
				continue
			}
			if err := other.newOut().UnmarshalWire(b); !errors.Is(err, ErrHotFrame) {
				t.Fatalf("%s frame under the %T decoder: err = %v; want ErrHotFrame", tc.name, other.in, err)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for typ := hotTypeStoreReq; typ <= hotTypeTransferQueryResp; typ++ {
		for i := 0; i < 2000; i++ {
			junk := make([]byte, 2+rng.Intn(48))
			rng.Read(junk)
			junk[0], junk[1] = HotMagic, typ
			for _, tc := range cases {
				if err := tc.newOut().UnmarshalWire(junk); err != nil && !errors.Is(err, ErrHotFrame) {
					t.Fatalf("garbage under the %T decoder: err = %v; want ErrHotFrame", tc.in, err)
				}
			}
		}
	}
}

// BenchmarkStoreFrameRoundTrip is the store row of the codec ladder: one
// store round trip's codec work — request encode and decode plus response
// encode and decode — for the two frame shapes a replicated group move is
// made of: a fenced put (the WAL steps) and the follower apply that
// replicates it.
func BenchmarkStoreFrameRoundTrip(b *testing.B) {
	val := make([]byte, 256)
	shapes := []struct {
		name string
		req  StoreReq
		resp StoreResp
	}{
		{"putf", StoreReq{Op: "putf", Part: 0, Epoch: 1, Key: "migration/wal/4294967296", Value: val},
			StoreResp{Version: 1 << 20}},
		{"apply", StoreReq{Op: "apply", Part: 0, Epoch: 1, Commit: cloudstore.Commit{
			Sets: []cloudstore.KV{{Key: "migration/wal/4294967296", Val: val, Ver: 1 << 20}},
		}}, StoreResp{}},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			var q StoreReq
			var p StoreResp
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf := GetFrameBuf()
				fb, err := sh.req.MarshalWire((*buf)[:0])
				if err != nil {
					b.Fatal(err)
				}
				if err := q.UnmarshalWire(fb); err != nil {
					b.Fatal(err)
				}
				*buf = fb
				PutFrameBuf(buf)
				rb, err := sh.resp.MarshalWire(nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.UnmarshalWire(rb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
