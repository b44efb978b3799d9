package core

import (
	"context"
	"encoding/base64"
	"errors"
	"time"

	"jxtaoverlay/internal/audit"
	"jxtaoverlay/internal/cred"
	"jxtaoverlay/internal/endpoint"
	"jxtaoverlay/internal/keys"
	"jxtaoverlay/internal/proto"
	"jxtaoverlay/internal/xmldoc"
)

// Credentials issued at secureLogin are proof of identity "until cr's
// expiration date" (§4.2.2 step 10). This file adds the natural
// companion primitive: secureRenew, which lets a client holding a
// still-valid credential obtain a fresh one by proof of key possession —
// no password retransmission, hence nothing new for an attacker to
// capture. The exchange reuses the extension's building blocks exactly
// as §6 prescribes for new primitives.

// OpSecureRenew is the broker operation implementing credential renewal.
const OpSecureRenew = "secureRenew"

// ErrRenewRejected is returned when the broker declines to renew.
var ErrRenewRejected = errors.New("core: credential renewal rejected")

// renewRequest is the signed renewal body.
func renewRequest(c *cred.Credential, nonce []byte) (*xmldoc.Element, error) {
	credDoc, err := c.Document()
	if err != nil {
		return nil, err
	}
	doc := xmldoc.New("SecureRenewRequest", "")
	doc.AddText("Nonce", base64.StdEncoding.EncodeToString(nonce))
	doc.AddText("Timestamp", time.Now().UTC().Format(time.RFC3339Nano))
	doc.Add(credDoc)
	return doc, nil
}

// SecureRenewCredential asks the connected broker for a fresh credential
// before the current one lapses. The request carries the current
// credential and is signed with the client key; the broker validates
// both and re-issues with a new validity window.
func (s *SecureClient) SecureRenewCredential(ctx context.Context) error {
	current := s.Identity().Credential
	if current == nil {
		return ErrNoCredential
	}
	s.mu.RLock()
	brCred := s.brokerCred
	s.mu.RUnlock()
	if brCred == nil {
		return ErrNoCredential
	}
	nonce, err := keys.RandomBytes(16)
	if err != nil {
		return err
	}
	doc, err := renewRequest(current, nonce)
	if err != nil {
		return err
	}
	sig, err := s.kp.Sign(doc.Canonical())
	if err != nil {
		return err
	}
	msg := endpoint.NewMessage().
		AddString(proto.ElemOp, OpSecureRenew).
		AddXML(proto.ElemBody, doc.Canonical()).
		Add(proto.ElemSig, sig)
	resp, err := s.Call(ctx, msg)
	if err != nil {
		return errors.Join(ErrRenewRejected, err)
	}
	credRaw, ok := resp.Get(proto.ElemCred)
	if !ok {
		return ErrRenewRejected
	}
	credDoc, err := xmldoc.ParseCanonical(credRaw)
	if err != nil {
		return ErrRenewRejected
	}
	fresh, err := cred.Parse(credDoc)
	if err != nil {
		return ErrRenewRejected
	}
	if !fresh.Key.Equal(s.kp.Public()) || fresh.Subject != s.PeerID() {
		return ErrCredUnexpected
	}
	if err := fresh.Verify(brCred.Key, time.Now()); err != nil {
		return ErrCredUnexpected
	}
	if fresh.NotAfter.Before(current.NotAfter) {
		return ErrCredUnexpected
	}
	// Install and re-arm the advertisement signer with the new chain.
	id := s.Identity()
	id.Credential = fresh
	id.Chain = []*cred.Credential{fresh, brCred}
	s.SetAdvSigner(s.advSigs.signer(fresh, brCred))
	return nil
}

// handleSecureRenew is the broker side: validate the presented
// credential (own issuance, unexpired), the proof-of-possession
// signature, and the CBID binding, then re-issue.
func (bs *BrokerSecurity) handleSecureRenew(from keys.PeerID, msg *endpoint.Message) *endpoint.Message {
	body, ok := msg.Get(proto.ElemBody)
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	sig, ok := msg.Get(proto.ElemSig)
	if !ok {
		return proto.Fail(proto.ErrBadRequest)
	}
	doc, err := xmldoc.ParseCanonical(body)
	if err != nil || doc.Name != "SecureRenewRequest" {
		return proto.Fail(proto.ErrBadRequest)
	}
	credDoc := doc.Child(cred.ElementName)
	if credDoc == nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	current, err := cred.Parse(credDoc)
	if err != nil {
		bs.auditAuth(audit.KindRenew, from, OpSecureRenew, proto.ErrBadCredential)
		return proto.Fail(proto.ErrBadCredential)
	}
	// Only credentials this broker issued, still within validity.
	if current.Issuer != bs.cfg.Credential.Subject {
		bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, proto.ErrBadCredential)
		return proto.Fail(proto.ErrBadCredential)
	}
	if err := current.Verify(bs.cfg.KeyPair.Public(), bs.now()); err != nil {
		bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, proto.ErrBadCredential)
		return proto.Fail(proto.ErrBadCredential)
	}
	// Proof of key possession over the whole request.
	if err := current.Key.Verify(body, sig); err != nil {
		bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, proto.ErrBadSignature)
		return proto.Fail(proto.ErrBadSignature)
	}
	if err := keys.VerifyCBID(current.Subject, current.Key); err != nil {
		bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, proto.ErrCBIDMismatch)
		return proto.Fail(proto.ErrCBIDMismatch)
	}
	ts, err := time.Parse(time.RFC3339Nano, doc.ChildText("Timestamp"))
	if err != nil || absDuration(bs.now().Sub(ts)) > 2*time.Minute {
		return proto.Fail(proto.ErrBadRequest)
	}
	// Renewal always signs a fresh window, and the next secureLogin of
	// this client reuses it.
	fp, err := current.Key.Fingerprint()
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	fresh, err := bs.issueFresh(issuedKey{peer: current.Subject, user: current.SubjectName, fp: fp}, current.Key)
	if err != nil {
		return proto.Fail(proto.ErrBadRequest)
	}
	bs.auditAuth(audit.KindRenew, current.Subject, OpSecureRenew, "ok")
	return proto.OK().AddXML(proto.ElemCred, fresh.xml)
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
