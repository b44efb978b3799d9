package attack

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/base64"
	"encoding/binary"
	"encoding/pem"
	"errors"
	"time"

	"jxtaoverlay/internal/core"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// Pair key-wrap adversaries. A wrap is
//
//	u16 blob length | RSA-OAEP_PKr(KEK) | 12-byte nonce | AES-256-GCM_KEK(CEK)
//
// with "jxta-overlay/pair-wrap/v1" ‖ recipient fingerprint as the GCM
// additional data, and the KEK lives for many messages of one
// sender→recipient pair. The helpers below mirror that layout so the
// suite can play an adversary who holds a leaked KEK.

var (
	kekLabel  = []byte("jxta-overlay/pair-kek/v1")
	wrapLabel = []byte("jxta-overlay/pair-wrap/v1")
)

// LeakKEK recovers the KEK inside a pair wrap using the recipient's
// private key: the position of an adversary who read KEK_AC out of
// either end of the A→C pair. It returns the KEK and its RSA blob.
func LeakKEK(recipient *keys.KeyPair, wrap []byte) (kek, blob []byte, err error) {
	pemBytes, err := recipient.MarshalPEM()
	if err != nil {
		return nil, nil, err
	}
	block, _ := pem.Decode(pemBytes)
	if block == nil {
		return nil, nil, errors.New("attack: no PEM block")
	}
	key, err := x509.ParsePKCS8PrivateKey(block.Bytes)
	if err != nil {
		return nil, nil, err
	}
	priv, ok := key.(*rsa.PrivateKey)
	if !ok || len(wrap) < 2 {
		return nil, nil, errors.New("attack: not an RSA key or not a wrap")
	}
	n := int(binary.BigEndian.Uint16(wrap))
	if len(wrap) < 2+n {
		return nil, nil, errors.New("attack: short wrap")
	}
	blob = wrap[2 : 2+n]
	kek, err = rsa.DecryptOAEP(sha256.New(), rand.Reader, priv, blob, kekLabel)
	return kek, blob, err
}

// ForgePairWrap wraps cek for recipient under a known KEK and its blob,
// in the exact pair-wrap layout.
func ForgePairWrap(kek, blob []byte, recipient *keys.PublicKey, cek []byte) ([]byte, error) {
	fp, err := recipient.Fingerprint()
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(kek)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	out := binary.BigEndian.AppendUint16(nil, uint16(len(blob)))
	out = append(out, blob...)
	out = append(out, nonce...)
	return gcm.Seal(out, nonce, cek, append(append([]byte(nil), wrapLabel...), fp[:]...)), nil
}

// ForgeFullEnvelope builds a ModeFull (sign+encrypt) wire to recipient
// whose header claims sender, with the content key wrapped by wrapCEK
// (for instance ForgePairWrap under a leaked KEK). sig, when non-nil, is
// pasted in as the header signature — one lifted from a genuine message
// of sender, say; the adversary cannot sign the forged header itself.
func ForgeFullEnvelope(wrapCEK func(cek []byte) ([]byte, error), sender keys.PeerID, group string, body, sig []byte) ([]byte, error) {
	header := xmldoc.New("SecureMessage", "")
	header.AddText("Sender", string(sender))
	header.AddText("Group", group)
	header.AddText("BodyDigest", base64.StdEncoding.EncodeToString(keys.SHA256(body)))
	header.AddText("Time", time.Now().UTC().Format(time.RFC3339Nano))
	if sig != nil {
		header.AddText("Signature", base64.StdEncoding.EncodeToString(sig))
	}
	h := header.Canonical()
	plain := binary.BigEndian.AppendUint32(nil, uint32(len(h)))
	plain = append(plain, h...)
	plain = append(plain, body...)
	cek, err := keys.NewContentKey()
	if err != nil {
		return nil, err
	}
	wrapped, err := wrapCEK(cek)
	if err != nil {
		return nil, err
	}
	nonce, ct, err := keys.AEADSeal(cek, plain)
	if err != nil {
		return nil, err
	}
	env := &keys.Envelope{WrappedKey: wrapped, Nonce: nonce, Ciphertext: ct}
	return append([]byte{byte(core.ModeFull)}, env.Marshal()...), nil
}
