package succinct

import "encoding/binary"

func probe(buf []byte) (uint64, int) { return binary.Uvarint(buf) }
