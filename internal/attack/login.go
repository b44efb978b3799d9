package attack

import (
	"encoding/base64"

	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/xmldoc"
)

// LoginRequest is a secureLogin request whose every field the attacker
// picks: the claimed user, password, peer ID and key, the session
// identifier, and the key pair that signs it (which need not match Key).
type LoginRequest struct {
	User, Pass string
	PeerID     keys.PeerID
	Key        *keys.PublicKey
	Sid        string
	Signer     *keys.KeyPair
}

// Envelope builds the request in the layout a secure client sends,
// signs it with Signer and encrypts it to the broker's key: the
// envelope element of a secureLogin operation.
func (r LoginRequest) Envelope(broker *keys.PublicKey) ([]byte, error) {
	keyB64, err := r.Key.MarshalBase64()
	if err != nil {
		return nil, err
	}
	doc := xmldoc.New("SecureLoginRequest", "")
	doc.AddText("User", r.User)
	doc.AddText("Pass", r.Pass)
	doc.AddText("PeerID", string(r.PeerID))
	doc.AddText("Key", keyB64)
	doc.AddText("Sid", r.Sid)
	sig, err := r.Signer.Sign(doc.Canonical())
	if err != nil {
		return nil, err
	}
	doc.AddText("Signature", base64.StdEncoding.EncodeToString(sig))
	env, err := broker.Encrypt(doc.Canonical())
	if err != nil {
		return nil, err
	}
	return env.Marshal(), nil
}
