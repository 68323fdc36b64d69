package props

func Luby(n int) int { return n } // want

func Improve(n int) int { return n } // want
