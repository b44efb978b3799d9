// Package keys provides the cryptographic primitives the JXTA-Overlay
// security extension is built from: RSA key pairs, detached signatures,
// a wrapped-key hybrid encryption scheme (the paper's E_PK(x), per
// PKCS#1 v2.0 [19]), crypto-based identifiers (CBIDs [20]) binding peer
// IDs to public keys, and PBKDF2 password hashing for the central
// database.
//
// Everything here uses only the Go standard library. Algorithm choices
// mirror the paper's era while staying modern enough to be safe:
// RSASSA-PKCS1-v1_5 with SHA-256 for signatures (what XMLdsig's
// rsa-sha256 URI denotes), and for encryption an AES-256-GCM content key
// wrapped under a key-encryption key that is itself RSA-OAEP wrapped and
// reused per sender→recipient pair (pairwrap.go).
package keys

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRSABits is the key size used when callers do not specify one.
// The paper's testbed era default (1024) is kept for faithful overhead
// reproduction; production deployments should raise it (see KeyPairBits).
const DefaultRSABits = 1024

// MinRSABits is the smallest key size accepted: below this the OAEP
// payload (a 32-byte AES key) no longer fits.
const MinRSABits = 1024

var (
	// ErrVerify is returned when a signature does not validate.
	ErrVerify = errors.New("keys: signature verification failed")
	// ErrDecrypt is returned when an envelope cannot be opened.
	ErrDecrypt = errors.New("keys: decryption failed")
	// ErrKeySize is returned for unsupported RSA key sizes.
	ErrKeySize = fmt.Errorf("keys: RSA key size below minimum %d bits", MinRSABits)
)

// KeyPair is an RSA key pair owned by one JXTA-Overlay entity
// (administrator, broker or client peer).
type KeyPair struct {
	priv *rsa.PrivateKey
	// pub memoizes Public so every caller shares one PublicKey wrapper
	// (and with it the wrapper's fingerprint memo).
	pub atomic.Pointer[PublicKey]
	// sigCalls counts Sign invocations. Signatures are the dominant
	// cost of the secure primitives, so tests and benchmarks assert on
	// this counter (e.g. "one header signature per fan-out round").
	sigCalls atomic.Uint64
	// unwrapCalls counts the RSA decrypts UnwrapKey performed.
	unwrapCalls atomic.Uint64

	// Pair key-wrap state (pairwrap.go).
	pairOnce sync.Once
	pair     *pairState
	counters atomic.Pointer[pairCounters]
	clock    atomic.Pointer[func() time.Time]
}

// NewKeyPair generates a key pair of DefaultRSABits using crypto/rand.
func NewKeyPair() (*KeyPair, error) { return KeyPairBits(DefaultRSABits) }

// KeyPairBits generates a key pair with the given modulus size.
func KeyPairBits(bits int) (*KeyPair, error) {
	if bits < MinRSABits {
		return nil, ErrKeySize
	}
	priv, err := rsa.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, fmt.Errorf("keys: generate: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// KeyPairFrom generates a key pair reading randomness from r. It exists
// so tests and deterministic simulations can derive stable keys from a
// seed; it must never be used with a non-cryptographic reader in
// production paths.
func KeyPairFrom(r io.Reader, bits int) (*KeyPair, error) {
	if bits < MinRSABits {
		return nil, ErrKeySize
	}
	priv, err := rsa.GenerateKey(r, bits)
	if err != nil {
		return nil, fmt.Errorf("keys: generate: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// Public returns the public half. The wrapper is shared across calls.
func (k *KeyPair) Public() *PublicKey {
	if p := k.pub.Load(); p != nil {
		return p
	}
	p := &PublicKey{pub: &k.priv.PublicKey}
	k.pub.Store(p)
	return p
}

// Bits returns the modulus size in bits.
func (k *KeyPair) Bits() int { return k.priv.N.BitLen() }

// Sign produces a detached RSASSA-PKCS1-v1_5/SHA-256 signature over msg.
func (k *KeyPair) Sign(msg []byte) ([]byte, error) {
	k.sigCalls.Add(1)
	digest := sha256.Sum256(msg)
	sig, err := rsa.SignPKCS1v15(rand.Reader, k.priv, crypto.SHA256, digest[:])
	if err != nil {
		return nil, fmt.Errorf("keys: sign: %w", err)
	}
	return sig, nil
}

// SignCalls reports how many times Sign has been invoked on this key
// pair. Benchmarks and tests use it to assert signature amortization
// (e.g. a group fan-out round must cost exactly one signature).
func (k *KeyPair) SignCalls() uint64 { return k.sigCalls.Load() }

// Decrypt opens an envelope produced by PublicKey.Encrypt for this key.
func (k *KeyPair) Decrypt(env *Envelope) ([]byte, error) {
	if env == nil {
		return nil, ErrDecrypt
	}
	cek, err := k.UnwrapKey(env.WrappedKey)
	if err != nil {
		return nil, ErrDecrypt
	}
	return AEADOpen(cek, env.Nonce, env.Ciphertext)
}

// MarshalPEM serializes the private key as PKCS#8 PEM, for keystore
// persistence (the PSE-like membership service).
func (k *KeyPair) MarshalPEM() ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(k.priv)
	if err != nil {
		return nil, fmt.Errorf("keys: marshal private: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: "PRIVATE KEY", Bytes: der}), nil
}

// ParseKeyPairPEM reads a PKCS#8 PEM private key.
func ParseKeyPairPEM(data []byte) (*KeyPair, error) {
	block, _ := pem.Decode(data)
	if block == nil || block.Type != "PRIVATE KEY" {
		return nil, errors.New("keys: no PRIVATE KEY block")
	}
	key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("keys: parse private: %w", err)
	}
	priv, ok := key.(*rsa.PrivateKey)
	if !ok {
		return nil, errors.New("keys: not an RSA private key")
	}
	return &KeyPair{priv: priv}, nil
}

// PublicKey is the shareable half of a KeyPair; it travels inside
// credentials and signed advertisements.
type PublicKey struct {
	pub *rsa.PublicKey
	// fp memoizes Fingerprint: the digest keys of the verification
	// caches include the key fingerprint, so it is recomputed far too
	// often to re-serialize the PKIX encoding each time. Keys are
	// immutable after construction, so the memo never goes stale.
	fp atomic.Pointer[[32]byte]
}

// Verify checks a detached signature produced by KeyPair.Sign.
func (p *PublicKey) Verify(msg, sig []byte) error {
	digest := sha256.Sum256(msg)
	if err := rsa.VerifyPKCS1v15(p.pub, crypto.SHA256, digest[:], sig); err != nil {
		return ErrVerify
	}
	return nil
}

// Envelope is the wire form of the wrapped-key encryption scheme: a
// wrapped AES-256 content key (pair-wrap layout, see pairwrap.go) plus
// the AES-GCM ciphertext.
type Envelope struct {
	WrappedKey []byte
	Nonce      []byte
	Ciphertext []byte
}

// Encrypt seals plain for the holder of the matching private key using a
// fresh AES-256 content key wrapped under a one-shot KEK (the paper's
// E_PKi(x) wrapped key encryption scheme; see WrapKey).
func (p *PublicKey) Encrypt(plain []byte) (*Envelope, error) {
	return encrypt(plain, p.WrapKey)
}

// NewContentKey returns a fresh AES-256 content key.
func NewContentKey() ([]byte, error) {
	cek := make([]byte, 32)
	if _, err := rand.Read(cek); err != nil {
		return nil, fmt.Errorf("keys: cek: %w", err)
	}
	return cek, nil
}

// AEADSeal encrypts plain under the content key with AES-GCM and a
// fresh random nonce, returning nonce and ciphertext.
func AEADSeal(cek, plain []byte) (nonce, ciphertext []byte, err error) {
	gcm, err := newGCM(cek)
	if err != nil {
		return nil, nil, err
	}
	nonce = make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, fmt.Errorf("keys: nonce: %w", err)
	}
	return nonce, gcm.Seal(nil, nonce, plain, nil), nil
}

// AEADOpen reverses AEADSeal.
func AEADOpen(cek, nonce, ciphertext []byte) ([]byte, error) {
	gcm, err := newGCM(cek)
	if err != nil {
		return nil, ErrDecrypt
	}
	if len(nonce) != gcm.NonceSize() {
		return nil, ErrDecrypt
	}
	plain, err := gcm.Open(nil, nonce, ciphertext, nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plain, nil
}

func newGCM(cek []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(cek)
	if err != nil {
		return nil, fmt.Errorf("keys: cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("keys: gcm: %w", err)
	}
	return gcm, nil
}

// Marshal flattens the envelope into a single self-describing byte
// string (length-prefixed sections) for transport inside messages.
func (e *Envelope) Marshal() []byte {
	out := make([]byte, 0, 12+len(e.WrappedKey)+len(e.Nonce)+len(e.Ciphertext))
	for _, part := range [][]byte{e.WrappedKey, e.Nonce, e.Ciphertext} {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(part)))
		out = append(out, n[:]...)
		out = append(out, part...)
	}
	return out
}

// ParseEnvelope reverses Envelope.Marshal.
func ParseEnvelope(data []byte) (*Envelope, error) {
	parts := make([][]byte, 3)
	for i := range parts {
		if len(data) < 4 {
			return nil, errors.New("keys: short envelope")
		}
		n := binary.BigEndian.Uint32(data[:4])
		data = data[4:]
		if uint32(len(data)) < n {
			return nil, errors.New("keys: truncated envelope section")
		}
		parts[i] = data[:n:n]
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, errors.New("keys: trailing bytes after envelope")
	}
	return &Envelope{WrappedKey: parts[0], Nonce: parts[1], Ciphertext: parts[2]}, nil
}

// MarshalPublic serializes a public key as PKIX DER.
func (p *PublicKey) MarshalDER() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(p.pub)
	if err != nil {
		return nil, fmt.Errorf("keys: marshal public: %w", err)
	}
	return der, nil
}

// MarshalBase64 serializes a public key as base64(PKIX DER), the form
// embedded in XML credentials and advertisements.
func (p *PublicKey) MarshalBase64() (string, error) {
	der, err := p.MarshalDER()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(der), nil
}

// ParsePublicDER reads a PKIX DER public key.
func ParsePublicDER(der []byte) (*PublicKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("keys: parse public: %w", err)
	}
	pub, ok := key.(*rsa.PublicKey)
	if !ok {
		return nil, errors.New("keys: not an RSA public key")
	}
	return &PublicKey{pub: pub}, nil
}

// ParsePublicBase64 reads a base64(PKIX DER) public key.
func ParsePublicBase64(s string) (*PublicKey, error) {
	der, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("keys: public key base64: %w", err)
	}
	return ParsePublicDER(der)
}

// Fingerprint returns the SHA-256 digest of the PKIX encoding; CBIDs and
// verification-cache keys are derived from it. The digest is memoized.
func (p *PublicKey) Fingerprint() ([32]byte, error) {
	if fp := p.fp.Load(); fp != nil {
		return *fp, nil
	}
	der, err := p.MarshalDER()
	if err != nil {
		return [32]byte{}, err
	}
	sum := sha256.Sum256(der)
	p.fp.Store(&sum)
	return sum, nil
}

// Equal reports whether two public keys are the same key.
func (p *PublicKey) Equal(o *PublicKey) bool {
	if p == nil || o == nil {
		return p == o
	}
	return p.pub.Equal(o.pub)
}

// RandomBytes returns n cryptographically random bytes; it backs
// challenge and session-identifier generation.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("keys: random: %w", err)
	}
	return b, nil
}

// PBKDF2 derives a key from a password with HMAC-SHA256, per RFC 2898.
// The central database stores only PBKDF2 hashes of end-user passwords.
func PBKDF2(password, salt []byte, iter, keyLen int) []byte {
	prf := hmac.New(sha256.New, password)
	hashLen := prf.Size()
	numBlocks := (keyLen + hashLen - 1) / hashLen
	dk := make([]byte, 0, numBlocks*hashLen)
	var block [4]byte
	u := make([]byte, hashLen)
	for i := 1; i <= numBlocks; i++ {
		prf.Reset()
		prf.Write(salt)
		binary.BigEndian.PutUint32(block[:], uint32(i))
		prf.Write(block[:])
		t := prf.Sum(nil)
		copy(u, t)
		for n := 2; n <= iter; n++ {
			prf.Reset()
			prf.Write(u)
			sum := prf.Sum(u[:0])
			for x := range t {
				t[x] ^= sum[x]
			}
		}
		dk = append(dk, t...)
	}
	return dk[:keyLen]
}

// ConstantTimeEqual compares two byte strings without leaking length
// position information about the mismatch.
func ConstantTimeEqual(a, b []byte) bool {
	return hmac.Equal(a, b)
}

// SHA256 returns the SHA-256 digest of data as a slice; it is the digest
// algorithm used throughout the extension (XMLdsig digests, CBIDs).
func SHA256(data []byte) []byte {
	sum := sha256.Sum256(data)
	return sum[:]
}
