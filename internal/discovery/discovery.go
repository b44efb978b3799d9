// Package discovery implements the local advertisement cache every JXTA
// peer maintains. Records keep both the parsed advertisement and the raw
// XML document: signature verification (xdsig) must run over the exact
// bytes that crossed the wire, not a re-serialization.
//
// Remote discovery — asking a broker for advertisements the local cache
// lacks — lives in the client/broker modules; this package is the shared
// storage layer.
package discovery

import (
	"errors"
	"sort"
	"sync"
	"time"

	"jxtaoverlay/internal/advert"
	"jxtaoverlay/internal/xmldoc"
)

// Record is one cached advertisement.
type Record struct {
	// Doc is the document exactly as received (signatures included).
	Doc *xmldoc.Element
	// Adv is the parsed payload.
	Adv advert.Advertisement
	// Received is when the record entered the cache.
	Received time.Time
}

// Expired reports whether the record has outlived its advertisement's
// lifetime at the given instant.
func (r *Record) Expired(now time.Time) bool {
	return now.Sub(r.Received) > r.Adv.Lifetime()
}

type cacheKey struct{ typ, id string }

// Cache is a concurrency-safe advertisement store with lazy expiry.
type Cache struct {
	mu   sync.RWMutex
	recs map[cacheKey]*Record
	now  func() time.Time
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{recs: make(map[cacheKey]*Record), now: time.Now}
}

// SetClock overrides the cache's time source (tests).
func (c *Cache) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Put parses and stores a document, replacing any record with the same
// (type, id). The stored Doc is a private clone.
func (c *Cache) Put(doc *xmldoc.Element) (advert.Advertisement, error) {
	adv, err := advert.Parse(doc)
	if err != nil {
		return nil, err
	}
	return adv, c.PutParsed(doc, adv)
}

// PutParsed stores a document whose parsed form the caller already has
// (the broker publish path parses exactly once — in its acceptance
// policy — and hands both forms here). adv must be the parse of doc.
func (c *Cache) PutParsed(doc *xmldoc.Element, adv advert.Advertisement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs[cacheKey{adv.AdvType(), adv.AdvID()}] = &Record{
		Doc:      doc.Clone(),
		Adv:      adv,
		Received: c.now(),
	}
	return nil
}

// PutSuperseding stores doc like PutParsed and, under the same lock,
// deletes every other record of adv's type that superseded reports as
// replaced by adv.
func (c *Cache) PutSuperseding(doc *xmldoc.Element, adv advert.Advertisement, superseded func(old advert.Advertisement) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{adv.AdvType(), adv.AdvID()}
	for k, rec := range c.recs {
		if k.typ == key.typ && k != key && superseded(rec.Adv) {
			delete(c.recs, k)
		}
	}
	c.recs[key] = &Record{Doc: doc.Clone(), Adv: adv, Received: c.now()}
}

// PutAdv serializes and stores an advertisement (unsigned path).
func (c *Cache) PutAdv(adv advert.Advertisement) error {
	doc, err := adv.Document()
	if err != nil {
		return err
	}
	_, err = c.Put(doc)
	return err
}

// ErrNotFound is returned by Lookup when no fresh record exists.
var ErrNotFound = errors.New("discovery: advertisement not found")

// Lookup returns the fresh record with the given type and id. Expired
// records are evicted and reported as missing.
func (c *Cache) Lookup(advType, id string) (*Record, error) {
	key := cacheKey{advType, id}
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.recs[key]
	if !ok {
		return nil, ErrNotFound
	}
	if rec.Expired(c.now()) {
		delete(c.recs, key)
		return nil, ErrNotFound
	}
	return rec, nil
}

// Find returns fresh records of the given type matching the predicate
// (nil matches all), sorted by AdvID for deterministic output.
func (c *Cache) Find(advType string, match func(advert.Advertisement) bool) []*Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var out []*Record
	for key, rec := range c.recs {
		if key.typ != advType {
			continue
		}
		if rec.Expired(now) {
			delete(c.recs, key)
			continue
		}
		if match == nil || match(rec.Adv) {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Adv.AdvID() < out[j].Adv.AdvID() })
	return out
}

// Remove deletes the record with the given type and id.
func (c *Cache) Remove(advType, id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.recs, cacheKey{advType, id})
}

// Sweep evicts every expired record and returns how many were removed.
func (c *Cache) Sweep() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	n := 0
	for key, rec := range c.recs {
		if rec.Expired(now) {
			delete(c.recs, key)
			n++
		}
	}
	return n
}

// Len returns the number of records currently stored (including any not
// yet lazily expired).
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.recs)
}
