package succinct

import "encoding/binary"

const groupSize = 8

func decodeGroup(buf []byte) (uint64, int) { return binary.Uvarint(buf) }
