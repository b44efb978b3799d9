package main

import (
	"crypto"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"sync"
	"time"
)

// The machine this benchmark runs on is shared: its speed moves by tens
// of percent over tens of seconds as other tenants come and go, and
// that moves every time the benchmark reports. So a measured phase
// pauses its load every canaryEvery and times a fixed piece of work
// that uses no program code: SHA-256, RSA-1024 signing and AES-GCM, the
// primitives the overlay spends its time in, on one goroutine per
// worker. The median of those samples, over canaryRefMS, is the phase's
// machine factor; times divide by it and rates multiply by it, so the
// printed figures read as on the reference machine, and a program
// change cannot move the factor.
const (
	canaryEvery = 500 * time.Millisecond
	canaryIters = 40
	// canaryRefMS is the canary's median on the reference machine: two
	// vCPUs of an Intel Xeon at 2.0 GHz, Go 1.24, otherwise idle.
	canaryRefMS = 20.0
)

// canary is the fixed reference work.
type canary struct {
	key  *rsa.PrivateKey
	aead cipher.AEAD
	in   []byte
	out  [workers][]byte
}

func newCanary() (*canary, error) {
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	c := &canary{key: key, aead: aead, in: make([]byte, 16<<10)}
	for w := range c.out {
		c.out[w] = make([]byte, 0, len(c.in)+aead.Overhead())
	}
	return c, nil
}

// sample runs the reference work once and returns its wall time.
func (c *canary) sample() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nonce := make([]byte, c.aead.NonceSize())
			for i := 0; i < canaryIters; i++ {
				d := sha256.Sum256(c.in[:4096])
				if _, err := rsa.SignPKCS1v15(nil, c.key, crypto.SHA256, d[:]); err != nil {
					panic(err) // signing a valid digest with a valid key cannot fail
				}
				c.out[w] = c.aead.Seal(c.out[w][:0], nonce, c.in, nil)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}
