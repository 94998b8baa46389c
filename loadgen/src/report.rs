//! One workload's result: the counts and metrics the run measured, the
//! checks it failed, and the last-line JSON object.

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    /// Requests (or `design_flow` iterations) started.
    pub attempted: u64,
    /// Structured errors, transport failures and byte mismatches.
    pub failed: u64,
    /// Every output check that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn note(&mut self, what: impl Into<String>) {
        self.notes.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints the notes, one line per metric, the failed checks, and the
    /// JSON object as the last line.
    pub fn print(&mut self, title: &str) {
        if self.failed > 0 {
            let failed = format!("{} of {} requests failed", self.failed, self.attempted);
            self.problem(failed);
        }
        for bad in self.metrics.iter().filter(|m| !m.value.is_finite()) {
            self.problems
                .push(format!("{} is not a finite number", bad.name));
        }
        println!("== {title}");
        for note in &self.notes {
            println!("   {note}");
        }
        for m in &self.metrics {
            println!("   {:<36} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("   CHECK FAILED: {p}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_finite())
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}
