package core

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"time"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// Group fan-out round sealing. The paper's secureMsgGroupPeer is N
// independent secureMsgPeer sends, so a 100-member round costs 100 RSA
// signatures — the flat ~385 µs/recipient the §5-style benchmarks
// record. The round format amortizes that: ONE header (timestamp +
// nonce + group + body digest + recipient-set binding) is signed once
// per round, the block is encrypted once under a fresh AES-256 content
// key, and the only per-recipient work is wrapping that key to each
// member (one AES-GCM seal under the sender's KEK for that member; the
// RSA-OAEP public-key operation is paid only when that KEK is minted).
//
// Wire layout (mode byte ModeGroup, then):
//
//	u32 wrap count
//	per wrap: 32-byte recipient key fingerprint | u32 length | wrapped CEK (keys pair-wrap layout)
//	u32 nonce length | AES-GCM nonce
//	AES-GCM ciphertext of ( u32 header length | header XML | raw body )
//
// Every recipient receives the same bytes; OpenGroup locates its wrap by
// key fingerprint. The header is inside the ciphertext, so the round
// leaks no more metadata than ModeFull does.
//
// Shared-header semantics (see SECURITY.md): the signature covers one
// header for the whole round, so recipients share the timestamp and
// nonce, and the signature alone no longer binds the message to a single
// recipient. Two mechanisms restore the per-recipient guarantees:
//
//   - the signed Recipients element is a digest of the ordered recipient
//     key fingerprints, so a signed header replayed against a different
//     recipient set fails OpenGroup (ErrRoundBinding);
//   - the signed Nonce is single-use per sender; receivers track it in
//     their ReplayGuard (CheckRound), so a round member re-encrypting
//     the same signed header to the same set is rejected as a replay.

// ErrRoundBinding is returned when a round header's signed recipient-set
// digest does not match the key wraps on the wire.
var ErrRoundBinding = errors.New("core: round header does not match recipient set")

// roundNonceSize is the length of the single-use round nonce.
const roundNonceSize = 16

// maxRoundRecipients bounds the wrap count parsed from the wire, so a
// hostile length prefix cannot force a huge allocation.
const maxRoundRecipients = 4096

// roundHeaderName is the XML element name of the signed round header.
const roundHeaderName = "SecureRound"

// recipientsDigest binds the round header to the ordered recipient set:
// SHA-256 over the concatenated recipient key fingerprints.
func recipientsDigest(fps [][32]byte) []byte {
	buf := make([]byte, 0, len(fps)*32)
	for i := range fps {
		buf = append(buf, fps[i][:]...)
	}
	return keys.SHA256(buf)
}

// SealGroup produces one secure envelope for a whole fan-out round:
// sign-then-encrypt with a single header signature regardless of the
// recipient count. The returned wire is identical for every recipient —
// callers send the same bytes to each member and each member's OpenGroup
// unwraps its own key. Senders that hand the round to a relay for
// per-recipient slicing use SealGroupDetached instead (same sealing, a
// choice of assemblies).
func SealGroup(signer *keys.KeyPair, sender keys.PeerID, group string, body []byte, recipients []*keys.PublicKey) (*Sealed, error) {
	d, err := SealGroupDetached(signer, sender, group, body, recipients)
	if err != nil {
		return nil, err
	}
	return &Sealed{Mode: ModeGroup, wire: d.Wire()}, nil
}

// nowUTCRFC3339 renders the signed round timestamp.
func nowUTCRFC3339() string { return time.Now().UTC().Format(time.RFC3339Nano) }

// roundWire is the parsed (but not yet decrypted) group round.
type roundWire struct {
	fps      [][32]byte
	wraps    [][]byte
	gcmNonce []byte
	ct       []byte
}

func parseRoundWire(payload []byte) (*roundWire, error) {
	if len(payload) < 4 {
		return nil, ErrEnvelope
	}
	n := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if n == 0 || n > maxRoundRecipients {
		return nil, ErrEnvelope
	}
	rw := &roundWire{fps: make([][32]byte, n), wraps: make([][]byte, n)}
	for i := uint32(0); i < n; i++ {
		if len(payload) < 36 {
			return nil, ErrEnvelope
		}
		copy(rw.fps[i][:], payload[:32])
		wl := binary.BigEndian.Uint32(payload[32:36])
		payload = payload[36:]
		if uint32(len(payload)) < wl {
			return nil, ErrEnvelope
		}
		rw.wraps[i] = payload[:wl:wl]
		payload = payload[wl:]
	}
	if len(payload) < 4 {
		return nil, ErrEnvelope
	}
	nl := binary.BigEndian.Uint32(payload[:4])
	payload = payload[4:]
	if nl > 64 || uint32(len(payload)) < nl {
		return nil, ErrEnvelope
	}
	rw.gcmNonce = payload[:nl:nl]
	rw.ct = payload[nl:]
	return rw, nil
}

// OpenGroup decrypts and parses a group round envelope addressed (among
// others) to own. Beyond the checks Open performs, it enforces the round
// semantics: the signed recipient-set digest must match the key wraps on
// the wire, and — when a ReplayGuard is supplied — the signed round
// nonce must be fresh for the sender (single use within the guard's
// window). The header signature itself is deferred to VerifySignature,
// exactly as in the unicast path.
func OpenGroup(own *keys.KeyPair, wire []byte, guard *ReplayGuard) (*Opened, error) {
	if len(wire) < 2 || Mode(wire[0]) != ModeGroup {
		return nil, ErrEnvelope
	}
	if own == nil {
		return nil, ErrNotRecipient
	}
	rw, err := parseRoundWire(wire[1:])
	if err != nil {
		return nil, err
	}
	ownFP, err := own.Public().Fingerprint()
	if err != nil {
		return nil, err
	}
	var wrap []byte
	for i := range rw.fps {
		if rw.fps[i] == ownFP {
			wrap = rw.wraps[i]
			break
		}
	}
	if wrap == nil {
		return nil, ErrNotRecipient
	}
	cek, err := own.UnwrapKey(wrap)
	if err != nil {
		return nil, ErrNotRecipient
	}
	block, err := keys.AEADOpen(cek, rw.gcmNonce, rw.ct)
	if err != nil {
		return nil, ErrEnvelope
	}
	header, body, err := unpackBlock(block, roundHeaderName)
	if err != nil {
		return nil, err
	}
	wantDigest, err := base64.StdEncoding.DecodeString(header.ChildText("BodyDigest"))
	if err != nil {
		return nil, ErrEnvelope
	}
	if !keys.ConstantTimeEqual(keys.SHA256(body), wantDigest) {
		return nil, ErrBodyDigest
	}
	// The signed Recipients digest must cover exactly the wraps carried
	// by this wire: a signed header spliced onto a different recipient
	// set dies here, before any signature check succeeds on it.
	wantRecipients, err := base64.StdEncoding.DecodeString(header.ChildText("Recipients"))
	if err != nil {
		return nil, ErrEnvelope
	}
	if !keys.ConstantTimeEqual(recipientsDigest(rw.fps), wantRecipients) {
		return nil, ErrRoundBinding
	}
	return finishRoundOpen(header, body, ModeGroup, guard)
}

// finishRoundOpen is the tail shared by OpenGroup and OpenSlice once the
// recipient binding specific to the wire form has been checked: parse
// the signed timestamp, nonce and signature out of the round header,
// build the Opened, and (when a guard is supplied) enforce the
// single-use round nonce.
func finishRoundOpen(header *xmldoc.Element, body []byte, mode Mode, guard *ReplayGuard) (*Opened, error) {
	sentAt, err := time.Parse(time.RFC3339Nano, header.ChildText("Time"))
	if err != nil {
		return nil, ErrEnvelope
	}
	nonce, err := base64.StdEncoding.DecodeString(header.ChildText("Nonce"))
	if err != nil || len(nonce) != roundNonceSize {
		return nil, ErrEnvelope
	}
	sigText := header.ChildText("Signature")
	if sigText == "" {
		// Rounds are always signed; an unsigned round header is malformed,
		// not a degraded mode.
		return nil, ErrNoSignature
	}
	sig, err := base64.StdEncoding.DecodeString(sigText)
	if err != nil {
		return nil, ErrEnvelope
	}
	o := &Opened{
		Mode:     mode,
		Sender:   keys.PeerID(header.ChildText("Sender")),
		Group:    header.ChildText("Group"),
		Body:     body,
		SentAt:   sentAt,
		Nonce:    nonce,
		sig:      sig,
		sigDoc:   header.CanonicalSkip("Signature"),
		headerEl: header,
	}
	if guard != nil {
		if err := guard.CheckRound(o.Sender, o.Nonce, o.SentAt); err != nil {
			return nil, err
		}
	}
	return o, nil
}
