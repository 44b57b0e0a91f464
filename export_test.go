package aovlis

// TrainersMade reports how many CLSTM_new trainers d's trainer list — the
// one its template and the template's other clones share — has ever made.
func TrainersMade(d *Detector) int { return d.trainers.Made() }
