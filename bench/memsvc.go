package main

import (
	"fmt"
	"math/rand"
	"sync"

	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

// site is the client location every generated request claims.
const site = simnet.Oregon

// memSvc is the trivial in-memory service.Service the consvc-stack
// workloads replicate: no simulated network and no sleeps, so what the
// client waits for is httpapi, cluster and wal, not the service.
type memSvc struct {
	mu    sync.Mutex
	posts []service.Post
}

func (m *memSvc) Name() string { return "benchmem" }

func (m *memSvc) Write(_ simnet.Site, p service.Post) error {
	m.mu.Lock()
	m.posts = append(m.posts, p)
	m.mu.Unlock()
	return nil
}

func (m *memSvc) Read(simnet.Site, string) ([]service.Post, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]service.Post(nil), m.posts...), nil
}

func (m *memSvc) Reset() error {
	m.mu.Lock()
	m.posts = nil
	m.mu.Unlock()
	return nil
}

// bodyAlphabet keeps generated bodies printable, so JSON encoding
// neither escapes nor expands them.
const bodyAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789 "

// genPosts returns the n posts of one stream of the op sequence: the
// same (seed, stream) always gives the same IDs and bodies, and no two
// streams share an ID (httpapi deduplicates on it). Bodies are 96 to
// 159 bytes, the size of a short status message.
func genPosts(seed int64, stream string, n int) []service.Post {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(stream))))
	posts := make([]service.Post, n)
	for i := range posts {
		body := make([]byte, 96+rng.Intn(64))
		for j := range body {
			body[j] = bodyAlphabet[rng.Intn(len(bodyAlphabet))]
		}
		posts[i] = service.Post{
			ID:     fmt.Sprintf("s%d-%s-%d", seed, stream, i),
			Author: "bench",
			Body:   string(body),
		}
	}
	return posts
}

// hashString is FNV-1a, enough to give each stream its own generator.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
