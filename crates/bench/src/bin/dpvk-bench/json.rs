//! The result line: one JSON object per run, written by the measuring
//! process and parsed back by the all-workloads and `--selfcheck` modes
//! (and by the benchmark driver). No external crates are available
//! offline, so both directions are spelled out here for exactly this
//! shape.

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Value of the metric called `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Render as the single result line. Values keep every digit `f64`
    /// display gives them (shortest round-trip form).
    pub fn to_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Metric names and units are restricted to a charset with
                // nothing to escape (see `metrics::valid_name`).
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a result line.
    ///
    /// # Errors
    ///
    /// A description of the first thing that is not the expected shape.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let mut p = Parser { s: line.as_bytes(), at: 0 };
        let mut out = RunResult { correct: false, attempted: 0, failed: 0, metrics: Vec::new() };
        let mut seen = 0;
        p.object(|p, key| {
            seen += 1;
            match key {
                "correct" => out.correct = p.boolean()?,
                "attempted" => out.attempted = p.number()? as u64,
                "failed" => out.failed = p.number()? as u64,
                "metrics" => p.object(|p, name| {
                    let mut m = Metric { name: name.to_string(), value: 0.0, unit: String::new() };
                    p.object(|p, field| {
                        match field {
                            "value" => m.value = p.number()?,
                            "unit" => m.unit = p.string()?.to_string(),
                            other => return Err(format!("unexpected metric field `{other}`")),
                        }
                        Ok(())
                    })?;
                    out.metrics.push(m);
                    Ok(())
                })?,
                other => return Err(format!("unexpected key `{other}`")),
            }
            Ok(())
        })?;
        p.skip_ws();
        if p.at != p.s.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        if seen != 4 {
            return Err(format!("expected 4 top-level keys, found {seen}"));
        }
        Ok(out)
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.at))
        }
    }

    /// A string without escapes (none of ours need any).
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.at;
        while let Some(&b) = self.s.get(self.at) {
            match b {
                b'"' => {
                    self.at += 1;
                    return std::str::from_utf8(&self.s[start..self.at - 1])
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err(format!("escape at byte {}", self.at)),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.at;
        while self.s.get(self.at).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
        text.parse().map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        self.skip_ws();
        for (text, value) in [("true", true), ("false", false)] {
            if self.s[self.at..].starts_with(text.as_bytes()) {
                self.at += text.len();
                return Ok(value);
            }
        }
        Err(format!("expected a boolean at byte {}", self.at))
    }

    /// `{ "key": <value read by `field`>, ... }`.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Parser<'a>, &'a str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.s.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            self.skip_ws();
            match self.s.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric { name: "op_p50_us".into(), value: 5612.30718, unit: "us".into() },
                Metric {
                    name: "core.exec.avg_warp_size".into(),
                    value: 3.5,
                    unit: "threads".into(),
                },
                Metric { name: "tiny".into(), value: 1.25e-7, unit: "1/s".into() },
            ],
        };
        let line = result.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::parse(&line), Ok(result.clone()));
        assert_eq!(result.metric("tiny"), Some(1.25e-7));
        assert_eq!(result.metric("absent"), None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "{\"correct\": true}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {}} x",
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}",
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": {\"v\": 1}}}",
        ] {
            assert!(RunResult::parse(bad).is_err(), "{bad}");
        }
    }
}
