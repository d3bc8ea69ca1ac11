package reservation

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"legion/internal/loid"
)

// signerWithKey builds a Signer over a chosen key, for tests that need
// determinism or key-compromise scenarios. A key longer than one SHA-256
// block is hashed first, as RFC 2104 says.
func signerWithKey(key []byte) *Signer {
	s := new(Signer)
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(s.key[:], key)
	return s
}

// referenceMAC is the oracle: crypto/hmac over the message laid out the
// way Signer.mac has always laid it out, LOIDs through String.
func referenceMAC(key []byte, t *Token) []byte {
	h := hmac.New(sha256.New, key)
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeLOID := func(l loid.LOID) {
		h.Write([]byte(l.String()))
		h.Write([]byte{0})
	}
	put(t.ID)
	writeLOID(t.Host)
	writeLOID(t.Vault)
	var bits uint64
	if t.Type.Share {
		bits |= 1
	}
	if t.Type.Reuse {
		bits |= 2
	}
	put(bits)
	put(uint64(t.Start.UnixNano()))
	put(uint64(t.Duration))
	put(uint64(t.Timeout))
	return h.Sum(nil)
}

var goldenKey = []byte("0123456789abcdef0123456789abcdef")

// TestTokenMACGolden pins MACs recorded from the commit before the MAC
// was rewritten: a token minted by an old Host validates at a new one.
func TestTokenMACGolden(t *testing.T) {
	longKey := make([]byte, 200)
	for i := range longKey {
		longKey[i] = byte(i)
	}
	typical := Token{ID: 7, Host: loid.MustParse("legion:d/Host/12"), Vault: loid.MustParse("legion:d/Vault/3"),
		Type: OneShotTimesharing, Start: time.Unix(1000, 5), Duration: time.Hour, Timeout: time.Second}
	edges := Token{ID: 1<<63 + 9, Host: loid.LOID{Domain: "uva.cs", Class: "Host", Instance: math.MaxUint64},
		Type: ReusableSpaceSharing, Start: time.Unix(0, -1)} // nil vault, zero durations
	for _, c := range []struct {
		name string
		key  []byte
		tok  Token
		want string
	}{
		{"typical", goldenKey, typical, "8788df1e292b9a02f2cb4b46bab69cb8c6f53e6415431e045c4ede79c183eb84"},
		{"edges", goldenKey, edges, "1d15b129faba3c2398e717f71ee72c6abb5bf9f325bac0e3b72488fc3305aae1"},
		{"key longer than a block", longKey, typical, "f5dac069c6bbc470d6af369c89713054f5b0967c4c374aee96dc44c16c5a1cd7"},
	} {
		s := signerWithKey(c.key)
		s.Sign(&c.tok)
		if got := hex.EncodeToString(c.tok.MAC); got != c.want {
			t.Errorf("%s: MAC %s, recorded %s", c.name, got, c.want)
		}
		if !s.Valid(&c.tok) {
			t.Errorf("%s: signer rejects its own token", c.name)
		}
	}
}

// fuzzToken builds a token whose LOID texts have the given lengths; 0 is
// the nil LOID.
func fuzzToken(id uint64, hostLen, vaultLen uint16, bits uint8, start, dur, timeout int64) Token {
	mk := func(class string, n uint16) loid.LOID {
		if n == 0 {
			return loid.Nil
		}
		return loid.LOID{Domain: strings.Repeat("d", int(n)), Class: class, Instance: id}
	}
	return Token{ID: id, Host: mk("Host", hostLen), Vault: mk("Vault", vaultLen),
		Type:  Type{Share: bits&1 != 0, Reuse: bits&2 != 0},
		Start: time.Unix(0, start), Duration: time.Duration(dur), Timeout: time.Duration(timeout)}
}

// FuzzTokenMAC: for any key and any token, Signer.mac is crypto/hmac
// over the reference message.
func FuzzTokenMAC(f *testing.F) {
	for _, keyLen := range []int{0, 1, 32, 64, 65, 200} {
		key := bytes.Repeat([]byte{0xa5}, keyLen)
		f.Add(key, uint64(keyLen), uint16(3), uint16(0), uint8(keyLen), int64(1000), int64(time.Hour), int64(0))
		// LOID texts that leave the stack buffer: one of them, then both.
		f.Add(key, uint64(1)<<63, uint16(300), uint16(3), uint8(2), int64(-1), int64(0), int64(time.Second))
		f.Add(key, uint64(math.MaxUint64), uint16(150), uint16(150), uint8(3), int64(math.MinInt64), int64(-5), int64(math.MaxInt64))
	}
	f.Fuzz(func(t *testing.T, key []byte, id uint64, hostLen, vaultLen uint16, bits uint8, start, dur, timeout int64) {
		tok := fuzzToken(id, hostLen%2048, vaultLen%2048, bits, start, dur, timeout)
		s := signerWithKey(key)
		s.Sign(&tok)
		if want := referenceMAC(key, &tok); !bytes.Equal(tok.MAC, want) {
			t.Fatalf("key %d bytes, LOID texts %d+%d: MAC %x, crypto/hmac says %x",
				len(key), hostLen%2048, vaultLen%2048, tok.MAC, want)
		}
		if !s.Valid(&tok) {
			t.Fatal("signer rejects its own token")
		}
		tok.ID++
		if s.Valid(&tok) {
			t.Fatal("token valid after its ID changed")
		}
	})
}

// TestSignerHoldsOnlyItsKey: one Signer per Host makes every extra field
// a per-Host cost (a cached hmac state was +7 % of the heap a
// 10,000-host metasystem holds at rest).
func TestSignerHoldsOnlyItsKey(t *testing.T) {
	ty := reflect.TypeOf(Signer{})
	if ty.NumField() != 1 || ty.Field(0).Name != "key" || ty.Size() != sha256.BlockSize {
		t.Errorf("Signer is %v (%d bytes); want its one-block key and nothing else", ty, ty.Size())
	}
}

// TestTokenMACAllocBudget: Sign allocates the MAC it stores and nothing
// else, Valid nothing at all.
func TestTokenMACAllocBudget(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	s := signerWithKey(goldenKey)
	tok := Token{ID: 7, Host: hostL, Vault: vaultL, Type: OneShotTimesharing,
		Start: time.Unix(1000, 5), Duration: time.Hour, Timeout: time.Second}
	if n := testing.AllocsPerRun(200, func() { s.Sign(&tok) }); n > 1 {
		t.Errorf("Sign: %.0f allocations, budget 1", n)
	}
	ok := true
	if n := testing.AllocsPerRun(200, func() { ok = ok && s.Valid(&tok) }); n > 0 {
		t.Errorf("Valid: %.0f allocations, budget 0", n)
	}
	if !ok {
		t.Error("token did not validate")
	}
}
