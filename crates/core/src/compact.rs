//! Compact, pointer-free encodings for every genomic data type.
//!
//! §4.4 of the paper: representations "should not employ pointer data
//! structures in main memory but be embedded into compact storage areas
//! which can be efficiently transferred between main memory and disk".
//! The [`Compact`] trait is that contract: every GDT serializes into a flat
//! byte string (varint-framed, packed sequence payloads) that `unidb`
//! stores verbatim as the payload of an opaque UDT value.
//!
//! The format is self-describing at the top level — the first byte is a
//! type tag — so a decoded payload can be dispatched back to its sort
//! ([`value_to_bytes`] / [`value_from_bytes`]).

use crate::algebra::Value;
use crate::alphabet::Strand;
use crate::error::{GenAlgError, Result};
use crate::gdt::{
    Chromosome, Feature, FeatureKind, Gene, Genome, Interval, Location, Mrna, PrimaryTranscript,
    Protein,
};
use crate::seq::{DnaSeq, DnaView, ProteinSeq, RnaSeq};

/// A type with a compact byte encoding.
pub trait Compact: Sized {
    /// Type tag identifying this GDT in a self-describing payload.
    const TAG: u8;

    /// Append the (untagged) payload to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode the (untagged) payload, advancing `buf` past it.
    fn decode(buf: &mut &[u8]) -> Result<Self>;

    /// The full tagged byte string.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.push(Self::TAG);
        self.encode(&mut buf);
        buf
    }

    /// Parse a full tagged byte string.
    fn from_bytes(mut bytes: &[u8]) -> Result<Self> {
        let tag = take_u8(&mut bytes)?;
        if tag != Self::TAG {
            return Err(GenAlgError::Corrupt(format!("expected tag {}, found {tag}", Self::TAG)));
        }
        let value = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(GenAlgError::Corrupt(format!("{} trailing bytes", bytes.len())));
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Primitive framing helpers
// ---------------------------------------------------------------------------

/// LEB128 unsigned varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read a LEB128 unsigned varint.
pub fn take_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = take_u8(buf)?;
        if shift >= 64 {
            return Err(GenAlgError::Corrupt("varint too long".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8> {
    let (&first, rest) = buf
        .split_first()
        .ok_or_else(|| GenAlgError::Corrupt("unexpected end of payload".into()))?;
    *buf = rest;
    Ok(first)
}

/// Read an item count, rejecting counts that cannot fit in the remaining
/// payload (every item needs at least one byte) — prevents corrupt varints
/// from driving giant allocations.
fn take_count(buf: &mut &[u8]) -> Result<usize> {
    let n = take_varint(buf)? as usize;
    if n > buf.len() {
        return Err(GenAlgError::Corrupt(format!(
            "count {n} exceeds remaining payload of {} bytes",
            buf.len()
        )));
    }
    Ok(n)
}

fn take_slice<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
    if buf.len() < len {
        return Err(GenAlgError::Corrupt(format!(
            "payload truncated: need {len} bytes, have {}",
            buf.len()
        )));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &mut &[u8]) -> Result<String> {
    let len = take_varint(buf)? as usize;
    let bytes = take_slice(buf, len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| GenAlgError::Corrupt("invalid UTF-8 in payload".into()))
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        None => buf.push(0),
    }
}

fn take_opt_str(buf: &mut &[u8]) -> Result<Option<String>> {
    Ok(match take_u8(buf)? {
        0 => None,
        _ => Some(take_str(buf)?),
    })
}

fn put_interval(buf: &mut Vec<u8>, iv: &Interval) {
    put_varint(buf, iv.start as u64);
    put_varint(buf, iv.end as u64);
}

fn take_interval(buf: &mut &[u8]) -> Result<Interval> {
    let start = take_varint(buf)? as usize;
    let end = take_varint(buf)? as usize;
    Interval::new(start, end)
}

fn put_strand(buf: &mut Vec<u8>, s: Strand) {
    buf.push(match s {
        Strand::Forward => 0,
        Strand::Reverse => 1,
    });
}

fn take_strand(buf: &mut &[u8]) -> Result<Strand> {
    Ok(match take_u8(buf)? {
        0 => Strand::Forward,
        1 => Strand::Reverse,
        other => return Err(GenAlgError::Corrupt(format!("invalid strand byte {other}"))),
    })
}

fn put_location(buf: &mut Vec<u8>, loc: &Location) {
    put_varint(buf, loc.segments().len() as u64);
    for iv in loc.segments() {
        put_interval(buf, iv);
    }
    put_strand(buf, loc.strand());
}

fn take_location(buf: &mut &[u8]) -> Result<Location> {
    let n = take_count(buf)?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        segments.push(take_interval(buf)?);
    }
    let strand = take_strand(buf)?;
    Location::join(segments, strand)
}

fn put_feature(buf: &mut Vec<u8>, f: &Feature) {
    put_str(buf, f.kind.key());
    put_location(buf, &f.location);
    put_varint(buf, f.qualifiers().len() as u64);
    for (k, v) in f.qualifiers() {
        put_str(buf, k);
        put_str(buf, v);
    }
}

fn take_feature(buf: &mut &[u8]) -> Result<Feature> {
    let kind = FeatureKind::from_key(&take_str(buf)?);
    let location = take_location(buf)?;
    let nq = take_varint(buf)? as usize;
    let mut feature = Feature::new(kind, location);
    for _ in 0..nq {
        let k = take_str(buf)?;
        let v = take_str(buf)?;
        feature = feature.with_qualifier(&k, &v);
    }
    Ok(feature)
}

// ---------------------------------------------------------------------------
// Sequence GDTs
// ---------------------------------------------------------------------------

impl Compact for DnaSeq {
    const TAG: u8 = 1;

    fn encode(&self, buf: &mut Vec<u8>) {
        let (raw, len) = self.raw();
        put_varint(buf, len as u64);
        buf.extend_from_slice(raw);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let len = take_varint(buf)? as usize;
        let nbytes = len.div_ceil(2);
        let raw = take_slice(buf, nbytes)?.to_vec();
        DnaSeq::from_raw(len, raw)
    }
}

/// Borrow the sequence of a tagged `dna` payload without copying it: the
/// view's bytes are the stored bytes. Everything [`DnaSeq::from_bytes`]
/// rejects — wrong tag, truncation, a length that disagrees with the byte
/// count, trailing bytes — is rejected here the same way.
pub fn dna_view(mut bytes: &[u8]) -> Result<DnaView<'_>> {
    let tag = take_u8(&mut bytes)?;
    if tag != DnaSeq::TAG {
        return Err(GenAlgError::Corrupt(format!("expected tag {}, found {tag}", DnaSeq::TAG)));
    }
    let len = take_varint(&mut bytes)? as usize;
    let packed = take_slice(&mut bytes, len.div_ceil(2))?;
    if !bytes.is_empty() {
        return Err(GenAlgError::Corrupt(format!("{} trailing bytes", bytes.len())));
    }
    DnaView::new(len, packed)
}

impl Compact for RnaSeq {
    const TAG: u8 = 2;

    fn encode(&self, buf: &mut Vec<u8>) {
        let (raw, len) = self.raw();
        put_varint(buf, len as u64);
        buf.extend_from_slice(raw);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let len = take_varint(buf)? as usize;
        let nbytes = len.div_ceil(4);
        let raw = take_slice(buf, nbytes)?.to_vec();
        RnaSeq::from_raw(len, raw)
    }
}

impl Compact for ProteinSeq {
    const TAG: u8 = 3;

    fn encode(&self, buf: &mut Vec<u8>) {
        let raw = self.raw();
        put_varint(buf, raw.len() as u64);
        buf.extend_from_slice(raw);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let len = take_varint(buf)? as usize;
        Ok(ProteinSeq::from_raw(take_slice(buf, len)?.to_vec()))
    }
}

// ---------------------------------------------------------------------------
// Structured GDTs
// ---------------------------------------------------------------------------

impl Compact for Gene {
    const TAG: u8 = 4;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.id());
        put_opt_str(buf, self.name());
        self.sequence().encode(buf);
        put_varint(buf, self.exons().len() as u64);
        for iv in self.exons() {
            put_interval(buf, iv);
        }
        match self.locus() {
            Some(locus) => {
                buf.push(1);
                put_str(buf, &locus.chromosome);
                put_interval(buf, &locus.interval);
                put_strand(buf, locus.strand);
            }
            None => buf.push(0),
        }
        buf.push(self.code_table());
        put_varint(buf, self.features().len() as u64);
        for f in self.features() {
            put_feature(buf, f);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let id = take_str(buf)?;
        let name = take_opt_str(buf)?;
        let sequence = DnaSeq::decode(buf)?;
        let nexons = take_varint(buf)? as usize;
        let mut builder = Gene::builder(&id).sequence(sequence);
        if let Some(name) = &name {
            builder = builder.name(name);
        }
        for _ in 0..nexons {
            let iv = take_interval(buf)?;
            builder = builder.exon(iv.start, iv.end);
        }
        if take_u8(buf)? == 1 {
            let chromosome = take_str(buf)?;
            let interval = take_interval(buf)?;
            let strand = take_strand(buf)?;
            builder = builder.locus(&chromosome, interval, strand);
        }
        builder = builder.code_table(take_u8(buf)?);
        let nfeatures = take_varint(buf)? as usize;
        for _ in 0..nfeatures {
            builder = builder.feature(take_feature(buf)?);
        }
        builder.build()
    }
}

impl Compact for PrimaryTranscript {
    const TAG: u8 = 5;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.gene_id());
        self.sequence().encode(buf);
        put_varint(buf, self.exons().len() as u64);
        for iv in self.exons() {
            put_interval(buf, iv);
        }
        buf.push(self.code_table());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let gene_id = take_str(buf)?;
        let seq = RnaSeq::decode(buf)?;
        let n = take_count(buf)?;
        let mut exons = Vec::with_capacity(n);
        for _ in 0..n {
            exons.push(take_interval(buf)?);
        }
        let table = take_u8(buf)?;
        PrimaryTranscript::new(&gene_id, seq, exons, table)
    }
}

impl Compact for Mrna {
    const TAG: u8 = 6;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.gene_id());
        self.sequence().encode(buf);
        match self.cds() {
            Some(iv) => {
                buf.push(1);
                put_interval(buf, &iv);
            }
            None => buf.push(0),
        }
        buf.push(self.code_table());
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let gene_id = take_str(buf)?;
        let seq = RnaSeq::decode(buf)?;
        let cds = match take_u8(buf)? {
            0 => None,
            _ => Some(take_interval(buf)?),
        };
        let table = take_u8(buf)?;
        Mrna::new(&gene_id, seq, cds, table)
    }
}

impl Compact for Protein {
    const TAG: u8 = 7;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.id());
        put_opt_str(buf, self.name());
        put_opt_str(buf, self.organism());
        self.sequence().encode(buf);
        put_varint(buf, self.features().len() as u64);
        for f in self.features() {
            put_feature(buf, f);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let id = take_str(buf)?;
        let name = take_opt_str(buf)?;
        let organism = take_opt_str(buf)?;
        let seq = ProteinSeq::decode(buf)?;
        let mut protein = Protein::new(&id, seq);
        if let Some(name) = &name {
            protein = protein.with_name(name);
        }
        if let Some(org) = &organism {
            protein = protein.with_organism(org);
        }
        let n = take_varint(buf)? as usize;
        for _ in 0..n {
            protein = protein.with_feature(take_feature(buf)?);
        }
        Ok(protein)
    }
}

impl Compact for Chromosome {
    const TAG: u8 = 8;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.name());
        self.sequence().encode(buf);
        put_varint(buf, self.genes().len() as u64);
        for g in self.genes() {
            g.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let name = take_str(buf)?;
        let seq = DnaSeq::decode(buf)?;
        let mut chromosome = Chromosome::new(&name, seq);
        let n = take_varint(buf)? as usize;
        for _ in 0..n {
            chromosome.add_gene(Gene::decode(buf)?)?;
        }
        Ok(chromosome)
    }
}

impl Compact for Genome {
    const TAG: u8 = 9;

    fn encode(&self, buf: &mut Vec<u8>) {
        put_str(buf, self.organism());
        put_varint(buf, self.taxonomy().len() as u64);
        for t in self.taxonomy() {
            put_str(buf, t);
        }
        put_varint(buf, self.chromosomes().len() as u64);
        for c in self.chromosomes() {
            c.encode(buf);
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self> {
        let organism = take_str(buf)?;
        let nt = take_count(buf)?;
        let mut taxonomy = Vec::with_capacity(nt);
        for _ in 0..nt {
            taxonomy.push(take_str(buf)?);
        }
        let lineage: Vec<&str> = taxonomy.iter().map(String::as_str).collect();
        let mut genome = Genome::new(&organism).with_taxonomy(&lineage);
        let nc = take_varint(buf)? as usize;
        for _ in 0..nc {
            genome.add_chromosome(Chromosome::decode(buf)?)?;
        }
        Ok(genome)
    }
}

// ---------------------------------------------------------------------------
// Tag-dispatched Value encoding (the adapter's opaque payload)
// ---------------------------------------------------------------------------

/// Encode a GDT-sorted [`Value`] into a self-describing byte string.
/// Base-typed and structural values are not encodable — those live in
/// native DBMS columns, not opaque ones.
pub fn value_to_bytes(v: &Value) -> Result<Vec<u8>> {
    Ok(match v {
        Value::Dna(x) => x.to_bytes(),
        Value::Rna(x) => x.to_bytes(),
        Value::ProteinSeq(x) => x.to_bytes(),
        Value::Gene(x) => x.to_bytes(),
        Value::Transcript(x) => x.to_bytes(),
        Value::Mrna(x) => x.to_bytes(),
        Value::Protein(x) => x.to_bytes(),
        Value::Chromosome(x) => x.to_bytes(),
        Value::Genome(x) => x.to_bytes(),
        other => {
            return Err(GenAlgError::Other(format!(
                "value of sort {} has no opaque encoding",
                other.sort()
            )))
        }
    })
}

/// Decode a self-describing byte string back into a [`Value`].
pub fn value_from_bytes(bytes: &[u8]) -> Result<Value> {
    let tag = *bytes.first().ok_or_else(|| GenAlgError::Corrupt("empty opaque payload".into()))?;
    Ok(match tag {
        DnaSeq::TAG => Value::Dna(DnaSeq::from_bytes(bytes)?),
        RnaSeq::TAG => Value::Rna(RnaSeq::from_bytes(bytes)?),
        ProteinSeq::TAG => Value::ProteinSeq(ProteinSeq::from_bytes(bytes)?),
        Gene::TAG => Value::Gene(Box::new(Gene::from_bytes(bytes)?)),
        PrimaryTranscript::TAG => {
            Value::Transcript(Box::new(PrimaryTranscript::from_bytes(bytes)?))
        }
        Mrna::TAG => Value::Mrna(Box::new(Mrna::from_bytes(bytes)?)),
        Protein::TAG => Value::Protein(Box::new(Protein::from_bytes(bytes)?)),
        Chromosome::TAG => Value::Chromosome(Box::new(Chromosome::from_bytes(bytes)?)),
        Genome::TAG => Value::Genome(Box::new(Genome::from_bytes(bytes)?)),
        other => return Err(GenAlgError::Corrupt(format!("unknown GDT tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> DnaSeq {
        DnaSeq::from_text(s).unwrap()
    }

    fn sample_gene() -> Gene {
        Gene::builder("g1")
            .name("demo")
            .sequence(dna("ATGGCCTTTAAGGTAACCGGGTTTCACTGA"))
            .exon(0, 12)
            .exon(21, 30)
            .locus("chr1", Interval::new(100, 130).unwrap(), Strand::Reverse)
            .code_table(11)
            .feature(
                Feature::new(
                    FeatureKind::Cds,
                    Location::simple(Interval::new(0, 12).unwrap(), Strand::Forward),
                )
                .with_qualifier("product", "demo protein"),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut slice = buf.as_slice();
            assert_eq!(take_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn varint_truncation_detected() {
        let mut slice: &[u8] = &[0x80];
        assert!(take_varint(&mut slice).is_err());
    }

    #[test]
    fn dna_roundtrip_including_iupac() {
        let s = dna("ATGCRYSWKMBDHVN");
        let bytes = s.to_bytes();
        assert_eq!(DnaSeq::from_bytes(&bytes).unwrap(), s);
        // Payload is ~half a byte per symbol plus framing.
        assert!(bytes.len() <= s.len() / 2 + 3);
    }

    #[test]
    fn dna_view_borrows_what_from_bytes_decodes() {
        for text in ["", "A", "ATGCRYSWKMBDHVN", "ACGTACGT"] {
            let bytes = dna(text).to_bytes();
            let view = dna_view(&bytes).unwrap();
            assert_eq!(view.to_seq(), DnaSeq::from_bytes(&bytes).unwrap());
            assert_eq!(view.to_text(), text);
        }
    }

    #[test]
    fn dna_view_rejects_corrupt_payloads() {
        let bytes = dna("ATGCRYSWK").to_bytes();
        // Every truncation, a wrong tag, trailing bytes.
        for cut in 0..bytes.len() {
            assert!(matches!(dna_view(&bytes[..cut]), Err(GenAlgError::Corrupt(_))), "cut {cut}");
        }
        let mut wrong_tag = bytes.clone();
        wrong_tag[0] = ProteinSeq::TAG;
        assert!(matches!(dna_view(&wrong_tag), Err(GenAlgError::Corrupt(_))));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(dna_view(&trailing), Err(GenAlgError::Corrupt(_))));
        // A length that claims more symbols than the bytes can hold.
        for claimed in [11u64, 1 << 20, u64::MAX] {
            let mut lying = vec![DnaSeq::TAG];
            put_varint(&mut lying, claimed);
            lying.extend_from_slice(&bytes[2..]);
            assert!(matches!(dna_view(&lying), Err(GenAlgError::Corrupt(_))), "claimed {claimed}");
        }
        // A length that claims fewer leaves trailing bytes.
        let mut short = vec![DnaSeq::TAG, 3];
        short.extend_from_slice(&bytes[2..]);
        assert!(matches!(dna_view(&short), Err(GenAlgError::Corrupt(_))));
    }

    #[test]
    fn rna_and_protein_roundtrip() {
        let r = RnaSeq::from_text("AUGGCCUAA").unwrap();
        assert_eq!(RnaSeq::from_bytes(&r.to_bytes()).unwrap(), r);
        let p = ProteinSeq::from_text("MAFK*X").unwrap();
        assert_eq!(ProteinSeq::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn gene_roundtrip_preserves_everything() {
        let g = sample_gene();
        let back = Gene::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.features()[0].qualifier("product"), Some("demo protein"));
        assert_eq!(back.locus().unwrap().strand, Strand::Reverse);
    }

    #[test]
    fn transcript_mrna_protein_roundtrip() {
        let g = Gene::builder("g").sequence(dna("ATGGCCTAA")).build().unwrap();
        let t = crate::dogma::transcribe(&g).unwrap();
        assert_eq!(PrimaryTranscript::from_bytes(&t.to_bytes()).unwrap(), t);
        let m = crate::dogma::splice(&t).unwrap();
        assert_eq!(Mrna::from_bytes(&m.to_bytes()).unwrap(), m);
        let p = Protein::new("p1", ProteinSeq::from_text("MA").unwrap())
            .with_name("x")
            .with_organism("y");
        assert_eq!(Protein::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn chromosome_and_genome_roundtrip() {
        let mut c = Chromosome::new("chr1", dna("CCATGAAATAACC"));
        let g = Gene::builder("g1")
            .sequence(dna("ATGAAATAA"))
            .locus("chr1", Interval::new(2, 11).unwrap(), Strand::Forward)
            .build()
            .unwrap();
        c.add_gene(g).unwrap();
        assert_eq!(Chromosome::from_bytes(&c.to_bytes()).unwrap(), c);

        let mut genome = Genome::new("Examplia").with_taxonomy(&["Bacteria"]);
        genome.add_chromosome(c).unwrap();
        assert_eq!(Genome::from_bytes(&genome.to_bytes()).unwrap(), genome);
    }

    #[test]
    fn wrong_tag_rejected() {
        let s = dna("ATG");
        let mut bytes = s.to_bytes();
        bytes[0] = 99;
        assert!(DnaSeq::from_bytes(&bytes).is_err());
        assert!(value_from_bytes(&bytes).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let s = dna("ATG");
        let mut bytes = s.to_bytes();
        bytes.push(0);
        assert!(DnaSeq::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let g = sample_gene();
        let bytes = g.to_bytes();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(Gene::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn value_dispatch_roundtrip() {
        let vals = vec![
            Value::Dna(dna("ATGC")),
            Value::Rna(RnaSeq::from_text("AUGC").unwrap()),
            Value::ProteinSeq(ProteinSeq::from_text("MAFK").unwrap()),
            Value::Gene(Box::new(sample_gene())),
        ];
        for v in vals {
            let bytes = value_to_bytes(&v).unwrap();
            assert_eq!(value_from_bytes(&bytes).unwrap(), v);
        }
        assert!(value_to_bytes(&Value::Int(1)).is_err());
        assert!(value_from_bytes(&[]).is_err());
    }
}
