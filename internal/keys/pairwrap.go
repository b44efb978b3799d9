package keys

import (
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"jxtaoverlay/internal/lru"
	"jxtaoverlay/internal/telemetry"
)

// Pair key-wrap. Every wrapped content key (CEK) on the wire has one
// layout:
//
//	u16 blob length | RSA-OAEP_PKr(KEK) | 12-byte nonce | AES-256-GCM_KEK(CEK)
//
// with the recipient key's fingerprint in the GCM additional data. The
// key-encryption key (KEK) is what RSA protects; the CEK rides under the
// KEK. A sender's KeyPair reuses one KEK (and its RSA blob) per recipient
// key for PairKEKLifetime or PairKEKMaxWraps wraps, whichever ends first,
// and a recipient memoizes the OAEP decrypt of each blob it has opened.
// So a sender→recipient pair pays the RSA private-key operation once per
// KEK instead of once per message. PublicKey.WrapKey emits the same
// layout with a one-shot KEK, for callers that hold no key pair.
//
// Confidentiality is still RSA-OAEP plus AES-256-GCM. Authentication is
// not: whoever holds a KEK can wrap any CEK for that recipient, exactly as
// anyone holding the recipient's public key always could. Source
// authentication comes only from the signatures the callers check.

const (
	// PairKEKLifetime is how long a sender reuses one KEK for a recipient
	// key. It bounds the traffic a leaked KEK exposes.
	PairKEKLifetime = 10 * time.Minute
	// PairKEKMaxWraps is how many content keys one KEK wraps before it is
	// replaced; with random 96-bit GCM nonces this keeps the nonce
	// collision probability negligible.
	PairKEKMaxWraps = 1 << 20
	// pairCacheSize bounds the KEKs one sender keeps (one per recipient key).
	pairCacheSize = 1024
	// UnwrapCacheSize bounds the decrypted KEK blobs one recipient keeps.
	UnwrapCacheSize = 1024

	kekSize      = 32
	wrapNonceLen = 12
	wrapTagLen   = 16
)

// kekLabel is the OAEP label of the RSA blob: it domain-separates KEK
// blobs from any other OAEP use of the same key.
var kekLabel = []byte("jxta-overlay/pair-kek/v1")

// wrapLabel prefixes the GCM additional data: label ‖ recipient key
// fingerprint binds a wrap to the key it was made for.
const wrapLabel = "jxta-overlay/pair-wrap/v1"

func wrapAAD(fp [32]byte) []byte {
	aad := make([]byte, 0, len(wrapLabel)+len(fp))
	aad = append(aad, wrapLabel...)
	return append(aad, fp[:]...)
}

// Telemetry metric names of the pair key-wrap counters.
const (
	MetricUnwrapRSA       = "keys_unwrap_rsa_total"
	MetricUnwrapCacheHits = "keys_unwrap_cache_hits_total"
	MetricKEKRotations    = "keys_kek_rotations_total"
)

// pairKEK is one KEK in use: its GCM instance, its RSA blob for the
// recipient, and the bookkeeping that decides when it is replaced.
type pairKEK struct {
	aead cipher.AEAD
	blob []byte
	aad  []byte
	born time.Time
	uses atomic.Uint64
}

func newPairKEK(r *PublicKey, fp [32]byte, now time.Time) (*pairKEK, error) {
	kek, err := RandomBytes(kekSize)
	if err != nil {
		return nil, err
	}
	blob, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, r.pub, kek, kekLabel)
	if err != nil {
		return nil, fmt.Errorf("keys: wrap: %w", err)
	}
	if len(blob) > 0xFFFF {
		return nil, ErrKeySize
	}
	aead, err := newGCM(kek)
	if err != nil {
		return nil, err
	}
	return &pairKEK{aead: aead, blob: blob, aad: wrapAAD(fp), born: now}, nil
}

// wrap seals one content key under the KEK, in the pair-wrap layout.
func (p *pairKEK) wrap(cek []byte) ([]byte, error) {
	if len(cek) != kekSize {
		return nil, fmt.Errorf("keys: wrap: content key must be %d bytes", kekSize)
	}
	var nonce [wrapNonceLen]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("keys: nonce: %w", err)
	}
	out := make([]byte, 0, 2+len(p.blob)+wrapNonceLen+len(cek)+wrapTagLen)
	out = binary.BigEndian.AppendUint16(out, uint16(len(p.blob)))
	out = append(out, p.blob...)
	out = append(out, nonce[:]...)
	return p.aead.Seal(out, nonce[:], cek, p.aad), nil
}

// splitWrap cuts a pair wrap into its three parts. The layout is exact:
// a blob of the recipient's modulus size and a sealed 32-byte key, no
// more and no less.
func splitWrap(wrapped []byte, modBytes int) (blob, nonce, sealed []byte, ok bool) {
	if len(wrapped) != 2+modBytes+wrapNonceLen+kekSize+wrapTagLen {
		return nil, nil, nil, false
	}
	if int(binary.BigEndian.Uint16(wrapped)) != modBytes {
		return nil, nil, nil, false
	}
	rest := wrapped[2:]
	return rest[:modBytes], rest[modBytes : modBytes+wrapNonceLen], rest[modBytes+wrapNonceLen:], true
}

// pairState is a KeyPair's pair-wrap state, allocated on first use so
// key pairs that never wrap or unwrap carry none of it.
type pairState struct {
	// pairs holds this key pair's KEKs as a sender, by recipient key
	// fingerprint.
	pairs *lru.Cache[[32]byte, *pairKEK]
	// unwraps memoizes, as a recipient, the deterministic OAEP decrypt of
	// each KEK blob (by SHA-256 of the blob) as its GCM instance. Only
	// blobs that decrypted are added.
	unwraps *lru.Cache[[32]byte, cipher.AEAD]
	// decryptMu stripes the OAEP decrypts by blob digest: concurrent
	// first opens of one blob share one RSA operation, while different
	// blobs rarely wait on each other.
	decryptMu [16]sync.Mutex
	// aad is this key pair's own wrap additional data.
	aad []byte
	// mintMu serializes KEK minting, so concurrent first wraps to one
	// recipient share one KEK.
	mintMu sync.Mutex
}

// pairCounters are the registry instruments bound by BindTelemetry.
type pairCounters struct {
	unwrapRSA, cacheHits, rotations *telemetry.Counter
}

func (k *KeyPair) wrapState() *pairState {
	k.pairOnce.Do(func() {
		fp, _ := k.Public().Fingerprint() // DER-encoding an RSA public key cannot fail
		k.pair = &pairState{
			pairs:   lru.New[[32]byte, *pairKEK](pairCacheSize),
			unwraps: lru.New[[32]byte, cipher.AEAD](UnwrapCacheSize),
			aad:     wrapAAD(fp),
		}
	})
	return k.pair
}

func (k *KeyPair) now() time.Time {
	if f := k.clock.Load(); f != nil {
		return (*f)()
	}
	return time.Now()
}

// SetClock overrides the time source that ages this key pair's KEKs
// (tests).
func (k *KeyPair) SetClock(now func() time.Time) { k.clock.Store(&now) }

// BindTelemetry counts this key pair's RSA unwraps, unwrap cache hits
// and KEK rotations on reg's keys_* counters. The counters are shared by
// name, so every key pair bound to one registry adds to the same totals.
func (k *KeyPair) BindTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	k.counters.Store(&pairCounters{
		unwrapRSA: reg.Counter(MetricUnwrapRSA,
			"RSA-OAEP decrypts of KEK blobs actually performed (unwrap cache misses)."),
		cacheHits: reg.Counter(MetricUnwrapCacheHits,
			"Wrapped content keys opened under a memoized KEK, without RSA."),
		rotations: reg.Counter(MetricKEKRotations,
			"Pair KEKs replaced after their lifetime or wrap budget ran out."),
	})
}

// WrapFor wraps a content key for r under this key pair's current KEK
// for r, minting (and RSA-wrapping) a fresh KEK on first contact and
// whenever the current one has reached PairKEKLifetime or
// PairKEKMaxWraps. The output has the same layout as PublicKey.WrapKey
// and opens with r's UnwrapKey.
func (k *KeyPair) WrapFor(r *PublicKey, cek []byte) ([]byte, error) {
	fp, err := r.Fingerprint()
	if err != nil {
		return nil, err
	}
	p, err := k.kekFor(r, fp)
	if err != nil {
		return nil, err
	}
	return p.wrap(cek)
}

// kekFor returns the KEK the next wrap for r uses, with that wrap
// already counted against its budget.
func (k *KeyPair) kekFor(r *PublicKey, fp [32]byte) (*pairKEK, error) {
	st := k.wrapState()
	now := k.now()
	usable := func(p *pairKEK) bool {
		return now.Sub(p.born) < PairKEKLifetime && p.uses.Add(1) <= PairKEKMaxWraps
	}
	if p, ok := st.pairs.Get(fp, time.Time{}); ok && usable(p) {
		return p, nil
	}
	st.mintMu.Lock()
	defer st.mintMu.Unlock()
	old, rotating := st.pairs.Get(fp, time.Time{})
	if rotating && usable(old) {
		return old, nil
	}
	p, err := newPairKEK(r, fp, now)
	if err != nil {
		return nil, err
	}
	p.uses.Store(1)
	st.pairs.Put(fp, p, time.Time{})
	if c := k.counters.Load(); c != nil && rotating {
		c.rotations.Inc()
	}
	return p, nil
}

// UnwrapKey recovers a content key wrapped for this key pair by WrapFor
// or PublicKey.WrapKey. The RSA decrypt of a KEK blob is memoized once
// it succeeds, so every later wrap under the same KEK costs one AES-GCM
// open. Any failure — wrong layout, wrong key, forged or tampered
// bytes — is ErrDecrypt.
func (k *KeyPair) UnwrapKey(wrapped []byte) ([]byte, error) {
	blob, nonce, sealed, ok := splitWrap(wrapped, k.priv.Size())
	if !ok {
		return nil, ErrDecrypt
	}
	st := k.wrapState()
	id := sha256.Sum256(blob)
	aead, hit := st.unwraps.Get(id, time.Time{})
	if !hit {
		var err error
		if aead, hit, err = k.decryptKEK(st, id, blob); err != nil {
			return nil, ErrDecrypt
		}
	}
	if c := k.counters.Load(); c != nil && hit {
		c.cacheHits.Inc()
	}
	cek, err := aead.Open(nil, nonce, sealed, st.aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return cek, nil
}

// decryptKEK performs the OAEP decrypt of one KEK blob, or finds that
// a concurrent caller just did, and memoizes its GCM instance. shared
// reports that no RSA operation was performed for this call.
func (k *KeyPair) decryptKEK(st *pairState, id [32]byte, blob []byte) (aead cipher.AEAD, shared bool, err error) {
	mu := &st.decryptMu[id[0]%byte(len(st.decryptMu))]
	mu.Lock()
	defer mu.Unlock()
	if aead, ok := st.unwraps.Get(id, time.Time{}); ok {
		return aead, true, nil
	}
	k.unwrapCalls.Add(1)
	if c := k.counters.Load(); c != nil {
		c.unwrapRSA.Inc()
	}
	h := sha256Pool.Get().(hash.Hash)
	kek, err := rsa.DecryptOAEP(h, rand.Reader, k.priv, blob, kekLabel)
	sha256Pool.Put(h) // DecryptOAEP leaves the hash reset
	if err != nil || len(kek) != kekSize {
		return nil, false, ErrDecrypt
	}
	if aead, err = newGCM(kek); err != nil {
		return nil, false, ErrDecrypt
	}
	st.unwraps.Put(id, aead, time.Time{})
	return aead, false, nil
}

// sha256Pool recycles the OAEP hash of the unwrap path.
var sha256Pool = sync.Pool{New: func() any { return sha256.New() }}

// UnwrapCalls reports how many RSA-OAEP decrypts UnwrapKey has actually
// performed on this key pair; memoized unwraps are not counted. Tests
// use it to pin "one RSA unwrap per KEK".
func (k *KeyPair) UnwrapCalls() uint64 { return k.unwrapCalls.Load() }

// UnwrapCacheLen reports how many decrypted KEK blobs this key pair
// currently memoizes (at most UnwrapCacheSize).
func (k *KeyPair) UnwrapCacheLen() int { return k.wrapState().unwraps.Len() }

// WrapKey wraps a content key to this public key under a one-shot KEK,
// in the pair-wrap layout: one RSA-OAEP public-key operation per call.
// Callers holding a key pair use KeyPair.WrapFor instead, which reuses
// the KEK across wraps to the same recipient.
func (p *PublicKey) WrapKey(cek []byte) ([]byte, error) {
	fp, err := p.Fingerprint()
	if err != nil {
		return nil, err
	}
	kek, err := newPairKEK(p, fp, time.Time{})
	if err != nil {
		return nil, err
	}
	return kek.wrap(cek)
}

// EncryptFor seals plain for r like PublicKey.Encrypt, but wraps the
// content key under this key pair's KEK for r (see WrapFor).
func (k *KeyPair) EncryptFor(r *PublicKey, plain []byte) (*Envelope, error) {
	return encrypt(plain, func(cek []byte) ([]byte, error) { return k.WrapFor(r, cek) })
}

// encrypt is the hybrid scheme behind Encrypt and EncryptFor: a fresh
// content key seals plain, and wrap protects the content key.
func encrypt(plain []byte, wrap func(cek []byte) ([]byte, error)) (*Envelope, error) {
	cek, err := NewContentKey()
	if err != nil {
		return nil, err
	}
	wrapped, err := wrap(cek)
	if err != nil {
		return nil, err
	}
	nonce, ct, err := AEADSeal(cek, plain)
	if err != nil {
		return nil, err
	}
	return &Envelope{WrappedKey: wrapped, Nonce: nonce, Ciphertext: ct}, nil
}
