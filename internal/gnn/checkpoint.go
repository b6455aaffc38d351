package gnn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Model checkpointing: a compact binary format (magic, kind, layer dims,
// then raw float32 parameters in layer/param order) so long trainings can
// resume and trained models can ship. Replica determinism makes one
// checkpoint valid for every GPU.

const checkpointMagic = "DGCLCKPT"

// Decoder bounds: a checkpoint header is untrusted input (truncated or
// bit-flipped files reach Load via checkpoint-store fallback), so every
// count is bounded before it sizes an allocation.
const (
	maxLayers     = 256
	maxDim        = 1 << 20
	maxLayerElems = 1 << 24 // per-layer parameter elements (64 MiB of float32)
	maxModelElems = 1 << 26 // whole-model parameter elements (256 MiB)
)

// Save writes the model's weights.
func (m *Model) Save(w io.Writer) error {
	if _, err := io.WriteString(w, checkpointMagic); err != nil {
		return err
	}
	writeStr := func(s string) error {
		if err := binary.Write(w, binary.LittleEndian, int32(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(w, s)
		return err
	}
	if err := writeStr(string(m.Kind)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int32(len(m.Layers))); err != nil {
		return err
	}
	for _, l := range m.Layers {
		if err := binary.Write(w, binary.LittleEndian, [2]int32{int32(l.InDim()), int32(l.OutDim())}); err != nil {
			return err
		}
		for _, p := range l.Params() {
			if err := binary.Write(w, binary.LittleEndian, [2]int32{int32(p.Rows), int32(p.Cols)}); err != nil {
				return err
			}
			for _, v := range p.Data {
				if err := binary.Write(w, binary.LittleEndian, math.Float32bits(v)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Load reads a checkpoint and reconstructs the model (weights exactly as
// saved, gradients zeroed).
func Load(r io.Reader) (*Model, error) {
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("gnn: read magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("gnn: not a DGCL checkpoint (magic %q)", magic)
	}
	readStr := func() (string, error) {
		var n int32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return "", err
		}
		if n < 0 || n > 1024 {
			return "", fmt.Errorf("gnn: implausible string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	kindStr, err := readStr()
	if err != nil {
		return nil, fmt.Errorf("gnn: read kind: %w", err)
	}
	kind, err := ParseModelKind(kindStr)
	if err != nil {
		return nil, fmt.Errorf("%w in checkpoint", err)
	}
	var numLayers int32
	if err := binary.Read(r, binary.LittleEndian, &numLayers); err != nil {
		return nil, fmt.Errorf("gnn: read layer count: %w", err)
	}
	if numLayers < 1 || numLayers > maxLayers {
		return nil, fmt.Errorf("gnn: implausible layer count %d", numLayers)
	}
	m := &Model{Kind: kind}
	var totalElems int64
	for li := int32(0); li < numLayers; li++ {
		var dims [2]int32
		if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
			return nil, fmt.Errorf("gnn: layer %d: read dims: %w", li, err)
		}
		if dims[0] < 1 || dims[1] < 1 || dims[0] > maxDim || dims[1] > maxDim {
			return nil, fmt.Errorf("gnn: layer %d: implausible dims %v", li, dims)
		}
		// Bound the allocation BEFORE NewLayer materializes the parameters: a
		// corrupt header must not turn into an attacker-controlled allocation.
		if int64(dims[0])*int64(dims[1]) > maxLayerElems {
			return nil, fmt.Errorf("gnn: layer %d: %dx%d exceeds %d parameters", li, dims[0], dims[1], maxLayerElems)
		}
		layer := kind.NewLayer(int(dims[0]), int(dims[1]), 0)
		for pi, p := range layer.Params() {
			totalElems += int64(p.Rows) * int64(p.Cols)
			if totalElems > maxModelElems {
				return nil, fmt.Errorf("gnn: checkpoint exceeds %d total parameters", int64(maxModelElems))
			}
			var shape [2]int32
			if err := binary.Read(r, binary.LittleEndian, &shape); err != nil {
				return nil, fmt.Errorf("gnn: layer %d param %d: read shape: %w", li, pi, err)
			}
			if int(shape[0]) != p.Rows || int(shape[1]) != p.Cols {
				return nil, fmt.Errorf("gnn: layer %d param %d shape %v, expected %dx%d", li, pi, shape, p.Rows, p.Cols)
			}
			// float32 little-endian matches the Float32bits encoding Save
			// produces; reading the slice in one call avoids 4-byte reads.
			if err := binary.Read(r, binary.LittleEndian, p.Data); err != nil {
				return nil, fmt.Errorf("gnn: layer %d param %d: read data: %w", li, pi, err)
			}
		}
		m.Layers = append(m.Layers, layer)
	}
	return m, nil
}
