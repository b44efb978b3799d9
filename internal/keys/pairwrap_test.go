package keys

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"jxtaoverlay/internal/telemetry"
)

func mustCEK(t testing.TB) []byte {
	t.Helper()
	cek, err := NewContentKey()
	if err != nil {
		t.Fatal(err)
	}
	return cek
}

func TestPairWrapRoundTripOneUnwrap(t *testing.T) {
	sender, recv := mustKey(11), mustKey(12)
	before := recv.UnwrapCalls()
	var blob []byte
	for i := 0; i < 20; i++ {
		cek := mustCEK(t)
		w, err := sender.WrapFor(recv.Public(), cek)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _, ok := splitWrap(w, recv.priv.Size())
		if !ok {
			t.Fatalf("wrap %d has the wrong layout", i)
		}
		if blob == nil {
			blob = b
		} else if !bytes.Equal(blob, b) {
			t.Fatalf("wrap %d carries a new KEK blob within one lifetime", i)
		}
		got, err := recv.UnwrapKey(w)
		if err != nil || !bytes.Equal(got, cek) {
			t.Fatalf("wrap %d: UnwrapKey = %x, %v", i, got, err)
		}
	}
	if got := recv.UnwrapCalls() - before; got != 1 {
		t.Fatalf("20 wraps under one KEK cost %d RSA unwraps, want 1", got)
	}
}

func TestPairWrapRotatesAfterLifetime(t *testing.T) {
	sender, recv := mustKey(13), mustKey(14)
	reg := telemetry.New()
	sender.BindTelemetry(reg)
	now := time.Now()
	sender.SetClock(func() time.Time { return now })
	first, err := sender.WrapFor(recv.Public(), mustCEK(t))
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(PairKEKLifetime - time.Second)
	same, _ := sender.WrapFor(recv.Public(), mustCEK(t))
	now = now.Add(2 * time.Second)
	rotated, _ := sender.WrapFor(recv.Public(), mustCEK(t))
	n := recv.priv.Size()
	if !bytes.Equal(first[2:2+n], same[2:2+n]) {
		t.Fatal("KEK replaced before its lifetime ended")
	}
	if bytes.Equal(first[2:2+n], rotated[2:2+n]) {
		t.Fatal("KEK still in use after its lifetime")
	}
	before := recv.UnwrapCalls()
	for _, w := range [][]byte{first, same, rotated} {
		if _, err := recv.UnwrapKey(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := recv.UnwrapCalls() - before; got != 2 {
		t.Fatalf("two KEKs cost %d RSA unwraps, want 2", got)
	}
	if v, _ := reg.Get(MetricKEKRotations); v != 1 {
		t.Fatalf("%s = %v, want 1 (first contact is not a rotation)", MetricKEKRotations, v)
	}
}

func TestPairWrapBoundToRecipient(t *testing.T) {
	sender, recv, other := mustKey(15), mustKey(16), mustKey(17)
	w, err := sender.WrapFor(recv.Public(), mustCEK(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.UnwrapKey(w); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("another key unwrapped the wrap: %v", err)
	}
	// The one-shot form opens the same way and is bound the same way.
	cek := mustCEK(t)
	one, err := recv.Public().WrapKey(cek)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := recv.UnwrapKey(one); err != nil || !bytes.Equal(got, cek) {
		t.Fatalf("one-shot wrap: %x, %v", got, err)
	}
	if _, err := other.UnwrapKey(one); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("another key unwrapped the one-shot wrap: %v", err)
	}
}

// TestBareOAEPWrapRejected: the RSA-OAEP content-key wrap the pair
// format replaced is not accepted in any form.
func TestBareOAEPWrapRejected(t *testing.T) {
	recv := mustKey(18)
	cek := mustCEK(t)
	bare, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, &recv.priv.PublicKey, cek, []byte("jxta-overlay/wrapped-key/v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.UnwrapKey(bare); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("bare OAEP wrap = %v, want ErrDecrypt", err)
	}
	framed := binary.BigEndian.AppendUint16(nil, uint16(len(bare)))
	framed = append(framed, bare...)
	framed = append(framed, make([]byte, wrapNonceLen+kekSize+wrapTagLen)...)
	if _, err := recv.UnwrapKey(framed); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("bare OAEP blob in the pair layout = %v, want ErrDecrypt", err)
	}
}

func TestUnwrapRejectsMalformedLayout(t *testing.T) {
	sender, recv := mustKey(19), mustKey(20)
	w, err := sender.WrapFor(recv.Public(), mustCEK(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recv.UnwrapKey(w); err != nil {
		t.Fatal(err)
	}
	lying := func(delta int) []byte {
		b := bytes.Clone(w)
		binary.BigEndian.PutUint16(b, uint16(int(binary.BigEndian.Uint16(b))+delta))
		return b
	}
	cases := map[string][]byte{
		"empty":          nil,
		"truncated":      w[:len(w)-1],
		"extended":       append(bytes.Clone(w), 0),
		"length+1":       lying(1),
		"length-1":       lying(-1),
		"header only":    w[:2],
		"blob only":      w[:2+recv.priv.Size()],
		"nonce tampered": flip(w, 2+recv.priv.Size()),
		"tag tampered":   flip(w, len(w)-1),
	}
	for name, b := range cases {
		if got, err := recv.UnwrapKey(b); !errors.Is(err, ErrDecrypt) || got != nil {
			t.Errorf("%s: UnwrapKey = %x, %v; want ErrDecrypt", name, got, err)
		}
	}
}

func flip(b []byte, i int) []byte {
	c := bytes.Clone(b)
	c[i] ^= 0x01
	return c
}

// TestConcurrentFirstUnwrapSharesOneRSA: opens racing on a blob nobody
// has decrypted yet pay one RSA operation between them.
func TestConcurrentFirstUnwrapSharesOneRSA(t *testing.T) {
	sender, recv := mustKey(21), mustKey(22)
	const n = 16
	wraps := make([][]byte, n)
	ceks := make([][]byte, n)
	for i := range wraps {
		ceks[i] = mustCEK(t)
		w, err := sender.WrapFor(recv.Public(), ceks[i])
		if err != nil {
			t.Fatal(err)
		}
		wraps[i] = w
	}
	before := recv.UnwrapCalls()
	var wg sync.WaitGroup
	for i := range wraps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got, err := recv.UnwrapKey(wraps[i]); err != nil || !bytes.Equal(got, ceks[i]) {
				t.Errorf("wrap %d: %x, %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
	if got := recv.UnwrapCalls() - before; got != 1 {
		t.Fatalf("%d concurrent first opens cost %d RSA unwraps, want 1", n, got)
	}
}

func TestEncryptForReusesKEK(t *testing.T) {
	sender, recv := mustKey(23), mustKey(24)
	before := recv.UnwrapCalls()
	for i := 0; i < 5; i++ {
		env, err := sender.EncryptFor(recv.Public(), []byte("sealed"))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := recv.Decrypt(env); err != nil || string(got) != "sealed" {
			t.Fatalf("Decrypt = %q, %v", got, err)
		}
	}
	if got := recv.UnwrapCalls() - before; got != 1 {
		t.Fatalf("5 envelopes cost %d RSA unwraps, want 1", got)
	}
}

// FuzzUnwrapKey feeds hostile wrap bytes to UnwrapKey. Whatever the
// input, it must not panic, must fail only with ErrDecrypt, and must
// yield a content key only for the exact bytes of a seed wrap.
func FuzzUnwrapKey(f *testing.F) {
	sender, recv := mustKey(25), mustKey(26)
	seeds := map[string][]byte{}
	for i := 0; i < 3; i++ {
		cek := mustCEK(f)
		pair, err := sender.WrapFor(recv.Public(), cek)
		if err != nil {
			f.Fatal(err)
		}
		one, err := recv.Public().WrapKey(cek)
		if err != nil {
			f.Fatal(err)
		}
		seeds[string(pair)] = cek
		seeds[string(one)] = cek
		f.Add(pair)
		f.Add(one)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cek, err := recv.UnwrapKey(b)
		if err != nil {
			if !errors.Is(err, ErrDecrypt) || cek != nil {
				t.Fatalf("UnwrapKey = %x, %v; want nil, ErrDecrypt", cek, err)
			}
			return
		}
		want, ok := seeds[string(b)]
		if !ok {
			t.Fatalf("UnwrapKey yielded a content key for bytes that are not a seed wrap: %x", b)
		}
		if !bytes.Equal(cek, want) {
			t.Fatalf("seed wrap opened to %x, want %x", cek, want)
		}
	})
}
