package banking

import (
	"fmt"
	"strings"
)

// Static image support (§5.1): the paper's parser groups image requests
// into image cohorts that bypass the process stage entirely — "the image
// responses are sent to the respective clients" straight from cache (or
// a CDN). Images involve no computation, so the paper does not evaluate
// their throughput; this reproduction serves them the same way: parsed,
// recognized, and answered from the host-side asset cache without
// touching the device pipeline.

// ImagePathPrefix roots the banking site's static assets.
const ImagePathPrefix = "/images/"

// imageSpecs enumerates the site's assets: name → size in bytes. Sizes
// are representative of SPECWeb banking's GIF charts and navigation art.
var imageSpecs = map[string]int{
	"banner.gif":     6_118,
	"nav_home.gif":   1_024,
	"nav_bills.gif":  1_096,
	"nav_xfer.gif":   1_072,
	"chart_q1.gif":   8_214,
	"chart_q2.gif":   8_342,
	"lock_icon.gif":  782,
	"footer.gif":     2_408,
	"promo_cd.gif":   12_660,
	"promo_loan.gif": 11_284,
}

// IsImagePath reports whether path names a static asset.
func IsImagePath(path string) bool {
	return strings.HasPrefix(path, ImagePathPrefix)
}

// imageCache holds rendered responses so repeated requests are a map hit,
// like a static-file server's page cache.
var imageCache = map[string][]byte{}

// ImageResponse returns the complete HTTP response for an asset path,
// generating and caching it on first use. It reports false for unknown
// assets (the caller responds 404).
func ImageResponse(path string) ([]byte, bool) {
	if resp, ok := imageCache[path]; ok {
		return resp, true
	}
	name := strings.TrimPrefix(path, ImagePathPrefix)
	size, ok := imageSpecs[name]
	if !ok {
		return nil, false
	}
	body := synthGIF(name, size)
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: image/gif\r\nConnection: keep-alive\r\nCache-Control: max-age=86400\r\nContent-Length: %d\r\n\r\n",
		len(body))
	resp := append([]byte(head), body...)
	imageCache[path] = resp
	return resp, true
}

// synthGIF produces a deterministic pseudo-GIF of exactly size bytes:
// a real GIF89a header and trailer around deterministic filler, enough
// for content-type sniffers and byte accounting.
func synthGIF(name string, size int) []byte {
	if size < 32 {
		size = 32
	}
	b := make([]byte, size)
	copy(b, "GIF89a")
	// Logical screen descriptor: 64x64, global color table flag.
	b[6], b[7], b[8], b[9] = 64, 0, 64, 0
	b[10] = 0x80
	seed := uint64(size)
	for _, c := range name {
		seed = seed*131 + uint64(c)
	}
	for i := 13; i < size-1; i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		b[i] = byte(seed)
	}
	b[size-1] = 0x3B // GIF trailer
	return b
}
