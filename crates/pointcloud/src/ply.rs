//! PLY (Polygon File Format) reading and writing.
//!
//! Supports the subset used by point-cloud datasets such as the 8i Voxelized
//! Full Bodies scans: a single `vertex` element with scalar properties, in
//! `ascii` or `binary_little_endian` encoding. Positions are read from the
//! `x`/`y`/`z` properties (any float/int scalar type) and colors from
//! `red`/`green`/`blue` (`uchar`) when present.
//!
//! Elements after `vertex` (e.g. `face`) are ignored on read. Big-endian
//! encodings and list properties on the vertex element are rejected with
//! [`Error::Unsupported`].

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};

use crate::cloud::PointCloud;
use crate::color::Color;
use crate::error::{Error, Result};
use crate::math::Vec3;
use crate::point::Point;

/// PLY body encodings supported by this implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Whitespace-separated decimal text.
    Ascii,
    /// Little-endian packed binary (the 8i distribution format).
    BinaryLittleEndian,
}

/// Scalar property types defined by the PLY specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarType {
    /// 8-bit signed.
    Char,
    /// 8-bit unsigned.
    UChar,
    /// 16-bit signed.
    Short,
    /// 16-bit unsigned.
    UShort,
    /// 32-bit signed.
    Int,
    /// 32-bit unsigned.
    UInt,
    /// 32-bit IEEE float.
    Float,
    /// 64-bit IEEE float.
    Double,
}

impl ScalarType {
    fn parse(s: &str) -> Option<ScalarType> {
        Some(match s {
            "char" | "int8" => ScalarType::Char,
            "uchar" | "uint8" => ScalarType::UChar,
            "short" | "int16" => ScalarType::Short,
            "ushort" | "uint16" => ScalarType::UShort,
            "int" | "int32" => ScalarType::Int,
            "uint" | "uint32" => ScalarType::UInt,
            "float" | "float32" => ScalarType::Float,
            "double" | "float64" => ScalarType::Double,
            _ => return None,
        })
    }

    fn size(self) -> usize {
        match self {
            ScalarType::Char | ScalarType::UChar => 1,
            ScalarType::Short | ScalarType::UShort => 2,
            ScalarType::Int | ScalarType::UInt | ScalarType::Float => 4,
            ScalarType::Double => 8,
        }
    }

    fn read_le(self, buf: &mut impl Buf) -> f64 {
        match self {
            ScalarType::Char => f64::from(buf.get_i8()),
            ScalarType::UChar => f64::from(buf.get_u8()),
            ScalarType::Short => f64::from(buf.get_i16_le()),
            ScalarType::UShort => f64::from(buf.get_u16_le()),
            ScalarType::Int => f64::from(buf.get_i32_le()),
            ScalarType::UInt => f64::from(buf.get_u32_le()),
            ScalarType::Float => f64::from(buf.get_f32_le()),
            ScalarType::Double => buf.get_f64_le(),
        }
    }

    fn parse_ascii(self, token: &str) -> Result<f64> {
        token
            .parse::<f64>()
            .map_err(|_| Error::MalformedBody(format!("bad numeric literal {token:?}")))
    }
}

#[derive(Debug, Clone)]
struct VertexLayout {
    /// (name, type) for every scalar property, in declaration order.
    properties: Vec<(String, ScalarType)>,
    count: usize,
}

impl VertexLayout {
    fn index_of(&self, name: &str) -> Option<usize> {
        self.properties.iter().position(|(n, _)| n == name)
    }

    fn stride(&self) -> usize {
        self.properties.iter().map(|(_, t)| t.size()).sum()
    }
}

/// Parsed PLY header for a vertex cloud.
#[derive(Debug, Clone)]
struct Header {
    /// Body encoding.
    encoding: Encoding,
    /// Number of vertices declared.
    vertex_count: usize,
    /// `true` when `red`/`green`/`blue` properties are present.
    has_color: bool,
    layout: VertexLayout,
}

fn parse_header<R: BufRead>(reader: &mut R) -> Result<Header> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.trim_end() != "ply" {
        return Err(Error::MalformedHeader("missing 'ply' magic".into()));
    }

    let mut encoding = None;
    let mut layout: Option<VertexLayout> = None;
    let mut in_vertex = false;
    let mut seen_other_element_after_vertex = false;

    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(Error::MalformedHeader("missing 'end_header'".into()));
        }
        let trimmed = line.trim_end();
        let mut tokens = trimmed.split_whitespace();
        match tokens.next() {
            Some("format") => {
                let fmt = tokens
                    .next()
                    .ok_or_else(|| Error::MalformedHeader("format line missing encoding".into()))?;
                encoding = Some(match fmt {
                    "ascii" => Encoding::Ascii,
                    "binary_little_endian" => Encoding::BinaryLittleEndian,
                    "binary_big_endian" => {
                        return Err(Error::Unsupported("binary_big_endian".into()))
                    }
                    other => {
                        return Err(Error::MalformedHeader(format!("unknown format {other:?}")))
                    }
                });
            }
            Some("comment") | Some("obj_info") => {}
            Some("element") => {
                let name = tokens
                    .next()
                    .ok_or_else(|| Error::MalformedHeader("element missing name".into()))?;
                let count: usize = tokens
                    .next()
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| Error::MalformedHeader("element missing count".into()))?;
                if name == "vertex" {
                    if layout.is_some() {
                        return Err(Error::MalformedHeader("duplicate vertex element".into()));
                    }
                    layout = Some(VertexLayout {
                        properties: Vec::new(),
                        count,
                    });
                    in_vertex = true;
                } else {
                    if layout.is_some() {
                        seen_other_element_after_vertex = true;
                    }
                    in_vertex = false;
                }
            }
            Some("property") => {
                if !in_vertex {
                    continue; // properties of ignored elements
                }
                let layout = layout.as_mut().expect("in_vertex implies layout");
                let ty = tokens
                    .next()
                    .ok_or_else(|| Error::MalformedHeader("property missing type".into()))?;
                if ty == "list" {
                    return Err(Error::Unsupported("list property on vertex element".into()));
                }
                let scalar = ScalarType::parse(ty).ok_or_else(|| {
                    Error::MalformedHeader(format!("unknown property type {ty:?}"))
                })?;
                let name = tokens
                    .next()
                    .ok_or_else(|| Error::MalformedHeader("property missing name".into()))?;
                layout.properties.push((name.to_string(), scalar));
            }
            Some("end_header") => break,
            Some(other) => {
                return Err(Error::MalformedHeader(format!(
                    "unexpected header keyword {other:?}"
                )))
            }
            None => {} // blank line, tolerate
        }
    }

    let encoding = encoding.ok_or_else(|| Error::MalformedHeader("missing format line".into()))?;
    let layout = layout.ok_or_else(|| Error::MalformedHeader("missing vertex element".into()))?;
    for coord in ["x", "y", "z"] {
        if layout.index_of(coord).is_none() {
            return Err(Error::MalformedHeader(format!(
                "vertex element missing {coord:?} property"
            )));
        }
    }
    let has_color = ["red", "green", "blue"]
        .iter()
        .all(|c| layout.index_of(c).is_some());
    // Ignoring trailing elements is only sound because we stop reading after
    // the vertex payload; note it for debugging.
    let _ = seen_other_element_after_vertex;
    Ok(Header {
        encoding,
        vertex_count: layout.count,
        has_color,
        layout,
    })
}

/// Reads a point cloud from a PLY byte stream.
pub fn read_ply<R: Read>(reader: R) -> Result<PointCloud> {
    let mut reader = BufReader::new(reader);
    let header = parse_header(&mut reader)?;
    let xi = header.layout.index_of("x").expect("validated");
    let yi = header.layout.index_of("y").expect("validated");
    let zi = header.layout.index_of("z").expect("validated");
    let rgb = if header.has_color {
        Some((
            header.layout.index_of("red").expect("validated"),
            header.layout.index_of("green").expect("validated"),
            header.layout.index_of("blue").expect("validated"),
        ))
    } else {
        None
    };

    let mut cloud = PointCloud::with_capacity(header.vertex_count);
    let nprops = header.layout.properties.len();
    let mut values = vec![0.0f64; nprops];

    match header.encoding {
        Encoding::Ascii => {
            let mut line = String::new();
            let mut read_vertices = 0usize;
            while read_vertices < header.vertex_count {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(Error::MalformedBody(format!(
                        "expected {} vertices, file ended after {read_vertices}",
                        header.vertex_count
                    )));
                }
                if line.trim().is_empty() {
                    continue;
                }
                let mut tokens = line.split_whitespace();
                for (slot, (_, ty)) in values.iter_mut().zip(&header.layout.properties) {
                    let tok = tokens.next().ok_or_else(|| {
                        Error::MalformedBody(format!(
                            "vertex {read_vertices}: expected {nprops} values"
                        ))
                    })?;
                    *slot = ty.parse_ascii(tok)?;
                }
                cloud.push(vertex_from_values(&values, xi, yi, zi, rgb));
                read_vertices += 1;
            }
        }
        Encoding::BinaryLittleEndian => {
            let stride = header.layout.stride();
            let mut raw = vec![0u8; stride * header.vertex_count];
            reader.read_exact(&mut raw).map_err(|e| {
                Error::MalformedBody(format!(
                    "binary body truncated (wanted {} bytes): {e}",
                    raw.len()
                ))
            })?;
            let mut buf = &raw[..];
            for _ in 0..header.vertex_count {
                for (slot, (_, ty)) in values.iter_mut().zip(&header.layout.properties) {
                    *slot = ty.read_le(&mut buf);
                }
                cloud.push(vertex_from_values(&values, xi, yi, zi, rgb));
            }
        }
    }
    Ok(cloud)
}

fn vertex_from_values(
    values: &[f64],
    xi: usize,
    yi: usize,
    zi: usize,
    rgb: Option<(usize, usize, usize)>,
) -> Point {
    let position = Vec3::new(values[xi], values[yi], values[zi]);
    let color = match rgb {
        Some((r, g, b)) => Color::new(
            values[r].clamp(0.0, 255.0) as u8,
            values[g].clamp(0.0, 255.0) as u8,
            values[b].clamp(0.0, 255.0) as u8,
        ),
        None => Color::BLACK,
    };
    Point::new(position, color)
}

/// Reads a point cloud from a PLY file on disk.
pub fn read_ply_file<P: AsRef<Path>>(path: P) -> Result<PointCloud> {
    read_ply(std::fs::File::open(path)?)
}

/// Writes a cloud as PLY with the 8i vertex layout
/// (`float x/y/z`, `uchar red/green/blue`).
pub fn write_ply<W: Write>(writer: W, cloud: &PointCloud, encoding: Encoding) -> Result<()> {
    let mut w = std::io::BufWriter::new(writer);
    let fmt = match encoding {
        Encoding::Ascii => "ascii",
        Encoding::BinaryLittleEndian => "binary_little_endian",
    };
    write!(
        w,
        "ply\nformat {fmt} 1.0\ncomment generated by arvis-pointcloud\n\
         element vertex {}\nproperty float x\nproperty float y\nproperty float z\n\
         property uchar red\nproperty uchar green\nproperty uchar blue\nend_header\n",
        cloud.len()
    )?;
    match encoding {
        Encoding::Ascii => {
            for p in cloud.iter() {
                writeln!(
                    w,
                    "{} {} {} {} {} {}",
                    p.position.x as f32,
                    p.position.y as f32,
                    p.position.z as f32,
                    p.color.r,
                    p.color.g,
                    p.color.b
                )?;
            }
        }
        Encoding::BinaryLittleEndian => {
            let mut buf = BytesMut::with_capacity(cloud.len() * 15);
            for p in cloud.iter() {
                buf.put_f32_le(p.position.x as f32);
                buf.put_f32_le(p.position.y as f32);
                buf.put_f32_le(p.position.z as f32);
                buf.put_u8(p.color.r);
                buf.put_u8(p.color.g);
                buf.put_u8(p.color.b);
            }
            w.write_all(&buf)?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes a cloud to a PLY file on disk.
pub fn write_ply_file<P: AsRef<Path>>(
    path: P,
    cloud: &PointCloud,
    encoding: Encoding,
) -> Result<()> {
    write_ply(std::fs::File::create(path)?, cloud, encoding)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cloud() -> PointCloud {
        PointCloud::from_points(vec![
            Point::xyz_rgb(0.0, 0.5, 1.0, 255, 0, 0),
            Point::xyz_rgb(-1.25, 2.0, 3.5, 0, 128, 255),
            Point::xyz_rgb(10.0, -10.0, 0.0, 1, 2, 3),
        ])
    }

    #[test]
    fn ascii_roundtrip() {
        let cloud = sample_cloud();
        let mut bytes = Vec::new();
        write_ply(&mut bytes, &cloud, Encoding::Ascii).unwrap();
        let back = read_ply(&bytes[..]).unwrap();
        assert_eq!(back.len(), cloud.len());
        for (a, b) in cloud.iter().zip(back.iter()) {
            assert!(a.position.distance(b.position) < 1e-6);
            assert_eq!(a.color, b.color);
        }
    }

    #[test]
    fn binary_roundtrip() {
        let cloud = sample_cloud();
        let mut bytes = Vec::new();
        write_ply(&mut bytes, &cloud, Encoding::BinaryLittleEndian).unwrap();
        let back = read_ply(&bytes[..]).unwrap();
        assert_eq!(back.len(), cloud.len());
        for (a, b) in cloud.iter().zip(back.iter()) {
            assert!(a.position.distance(b.position) < 1e-6);
            assert_eq!(a.color, b.color);
        }
    }

    #[test]
    fn reads_8i_style_header() {
        // Layout used by the 8i Voxelized Full Bodies distribution, with
        // `comment` and `obj_info` lines, bare or not, anywhere in the
        // header.
        let text = "ply\ncomment before the format\nformat ascii 1.0\n\
                    comment Version 2, Copyright 2017\nobj_info num_cols 1024\n\
                    element vertex 2\nproperty float x\ncomment\nproperty float y\n\
                    obj_info\nproperty float z\nproperty uchar red\nproperty uchar green\n\
                    property uchar blue\nobj_info last line, end_header\nend_header\n\
                    100 200 300 10 20 30\n1 2 3 40 50 60\n";
        let cloud = read_ply(text.as_bytes()).unwrap();
        assert_eq!(cloud.len(), 2);
        assert_eq!(cloud.points()[0].position, Vec3::new(100.0, 200.0, 300.0));
        assert_eq!(cloud.points()[1].color, Color::new(40, 50, 60));
    }

    #[test]
    fn reads_double_positions_without_color() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property double x\nproperty double y\nproperty double z\nend_header\n\
                    0.125 -2.5 7\n";
        let cloud = read_ply(text.as_bytes()).unwrap();
        assert_eq!(cloud.points()[0].position, Vec3::new(0.125, -2.5, 7.0));
        assert_eq!(cloud.points()[0].color, Color::BLACK);
    }

    #[test]
    fn tolerates_extra_scalar_properties() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property float x\nproperty float y\nproperty float z\n\
                    property float nx\nproperty uchar red\nproperty uchar green\nproperty uchar blue\n\
                    end_header\n1 2 3 0.5 9 8 7\n";
        let cloud = read_ply(text.as_bytes()).unwrap();
        assert_eq!(cloud.points()[0].color, Color::new(9, 8, 7));
    }

    #[test]
    fn ignores_trailing_face_element() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property float x\nproperty float y\nproperty float z\n\
                    element face 1\nproperty list uchar int vertex_indices\nend_header\n\
                    1 2 3\n3 0 0 0\n";
        let cloud = read_ply(text.as_bytes()).unwrap();
        assert_eq!(cloud.len(), 1);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            read_ply("plz\n".as_bytes()),
            Err(Error::MalformedHeader(_))
        ));
    }

    #[test]
    fn rejects_big_endian() {
        let text = "ply\nformat binary_big_endian 1.0\nelement vertex 0\n\
                    property float x\nproperty float y\nproperty float z\nend_header\n";
        assert!(matches!(
            read_ply(text.as_bytes()),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_list_property_on_vertex() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property list uchar float x\nend_header\n";
        assert!(matches!(
            read_ply(text.as_bytes()),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_missing_coordinates() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property float x\nproperty float y\nend_header\n1 2\n";
        assert!(matches!(
            read_ply(text.as_bytes()),
            Err(Error::MalformedHeader(_))
        ));
    }

    #[test]
    fn rejects_truncated_ascii_body() {
        let text = "ply\nformat ascii 1.0\nelement vertex 3\n\
                    property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n";
        assert!(matches!(
            read_ply(text.as_bytes()),
            Err(Error::MalformedBody(_))
        ));
    }

    #[test]
    fn rejects_truncated_binary_body() {
        let mut bytes = Vec::new();
        write_ply(&mut bytes, &sample_cloud(), Encoding::BinaryLittleEndian).unwrap();
        bytes.truncate(bytes.len() - 4);
        assert!(matches!(read_ply(&bytes[..]), Err(Error::MalformedBody(_))));
    }

    #[test]
    fn rejects_bad_ascii_literal() {
        let text = "ply\nformat ascii 1.0\nelement vertex 1\n\
                    property float x\nproperty float y\nproperty float z\nend_header\n1 oops 3\n";
        assert!(matches!(
            read_ply(text.as_bytes()),
            Err(Error::MalformedBody(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("arvis_ply_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cloud.ply");
        write_ply_file(&path, &sample_cloud(), Encoding::BinaryLittleEndian).unwrap();
        let back = read_ply_file(&path).unwrap();
        assert_eq!(back.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_cloud_roundtrip() {
        let mut bytes = Vec::new();
        write_ply(&mut bytes, &PointCloud::new(), Encoding::Ascii).unwrap();
        let back = read_ply(&bytes[..]).unwrap();
        assert!(back.is_empty());
    }
}
