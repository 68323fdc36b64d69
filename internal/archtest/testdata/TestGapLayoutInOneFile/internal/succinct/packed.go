package succinct

import "encoding/binary"

func head(buf []byte) (uint64, int) {
	var scratch [binary.MaxVarintLen64]byte // want
	_ = scratch
	binary.AppendUvarint(buf, 1) // want
	return binary.Uvarint(buf)   // want
}

func gaps(buf []byte) int { v, _ := decodeGroup(buf); return int(v) / groupSize } // want
