//! Procedural analytic scenes standing in for the NeRF-Synthetic and
//! NeRF-360 datasets.
//!
//! The paper's experiments depend on scene *statistics* — occupancy
//! ratio, ray hit rate, samples per ray — rather than photographic
//! content, so each named scene is modelled as a composition of signed
//! -distance primitives inside the normalized model cube, with the
//! compositions chosen so that the per-scene sparsity ordering matches
//! the paper's ablation spread (e.g. *mic* and *ficus* are sparse and
//! show the largest Stage-I speedups in Tab. VI; *ship* is dense and
//! shows the smallest). Ground-truth images are produced by sphere
//! tracing with headlight shading, giving exact, noise-free training
//! targets.

use crate::camera::Camera;
use crate::image::Image;
use crate::math::{Aabb, Ray, Vec3};
use crate::occupancy::OccupancyGrid;

/// The eight object-scale scenes mirroring NeRF-Synthetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntheticScene {
    /// A seat with four legs and a back.
    Chair,
    /// A kit of cylinders and a kick drum.
    Drums,
    /// A sparse plant: thin trunk with scattered leaf spheres.
    Ficus,
    /// Two sausages on a wide plate.
    Hotdog,
    /// A studded brick assembly.
    Lego,
    /// A grid of small material-test spheres.
    Materials,
    /// A microphone: small head on a thin stand (sparsest scene).
    Mic,
    /// A large hull with masts and superstructure (densest scene).
    Ship,
}

impl SyntheticScene {
    /// All eight scenes in the paper's table order.
    pub const ALL: [SyntheticScene; 8] = [
        SyntheticScene::Ship,
        SyntheticScene::Mic,
        SyntheticScene::Materials,
        SyntheticScene::Lego,
        SyntheticScene::Hotdog,
        SyntheticScene::Ficus,
        SyntheticScene::Drums,
        SyntheticScene::Chair,
    ];

    /// The scene's lowercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            SyntheticScene::Chair => "chair",
            SyntheticScene::Drums => "drums",
            SyntheticScene::Ficus => "ficus",
            SyntheticScene::Hotdog => "hotdog",
            SyntheticScene::Lego => "lego",
            SyntheticScene::Materials => "materials",
            SyntheticScene::Mic => "mic",
            SyntheticScene::Ship => "ship",
        }
    }
}

/// The seven unbounded large-scale scenes mirroring NeRF-360.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LargeScene {
    /// A frame of thin tubes over grass (sparse foreground).
    Bicycle,
    /// A dense miniature tree on a table.
    Bonsai,
    /// A kitchen counter with utensils.
    Counter,
    /// A table among dense vegetation (densest; smallest speedup).
    Garden,
    /// A room corner with appliances.
    Kitchen,
    /// Furniture in a box-shaped room.
    Room,
    /// A single wide tree stump on the ground.
    Stump,
}

impl LargeScene {
    /// All seven scenes in the paper's table order.
    pub const ALL: [LargeScene; 7] = [
        LargeScene::Bicycle,
        LargeScene::Bonsai,
        LargeScene::Counter,
        LargeScene::Garden,
        LargeScene::Kitchen,
        LargeScene::Room,
        LargeScene::Stump,
    ];

    /// The scene's lowercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            LargeScene::Bicycle => "bicycle",
            LargeScene::Bonsai => "bonsai",
            LargeScene::Counter => "counter",
            LargeScene::Garden => "garden",
            LargeScene::Kitchen => "kitchen",
            LargeScene::Room => "room",
            LargeScene::Stump => "stump",
        }
    }
}

/// A signed-distance primitive with an albedo.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Sphere {
        center: Vec3,
        radius: f32,
    },
    Box {
        center: Vec3,
        half: Vec3,
    },
    /// Capsule along the segment `a`–`b` with the given radius.
    Capsule {
        a: Vec3,
        b: Vec3,
        radius: f32,
    },
    /// Torus in the XZ plane around `center`.
    Torus {
        center: Vec3,
        major: f32,
        minor: f32,
    },
}

impl Shape {
    fn sdf(&self, p: Vec3) -> f32 {
        match *self {
            Shape::Sphere { center, radius } => p.distance(center) - radius,
            Shape::Box { center, half } => {
                let q = (p - center).abs() - half;
                let outside = q.max(Vec3::ZERO).length();
                let inside = q.max_element().min(0.0);
                outside + inside
            }
            Shape::Capsule { a, b, radius } => {
                let pa = p - a;
                let ba = b - a;
                let h = (pa.dot(ba) / ba.length_squared()).clamp(0.0, 1.0);
                (pa - ba * h).length() - radius
            }
            Shape::Torus { center, major, minor } => {
                let q = p - center;
                let ring = Vec3::new(q.x, 0.0, q.z).length() - major;
                (ring * ring + q.y * q.y).sqrt() - minor
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Primitive {
    shape: Shape,
    albedo: Vec3,
}

/// A procedural scene: a union of SDF primitives inside the normalized
/// model cube, plus a background color.
#[derive(Debug, Clone)]
pub struct ProceduralScene {
    name: String,
    primitives: Vec<Primitive>,
    background: Vec3,
}

impl ProceduralScene {
    /// Builds the procedural stand-in for a NeRF-Synthetic scene.
    pub fn synthetic(scene: SyntheticScene) -> Self {
        let mut prims = Vec::new();
        let c = |x: f32, y: f32, z: f32| Vec3::new(x, y, z);
        match scene {
            SyntheticScene::Mic => {
                // Sparsest: small head on a thin stand.
                prims.push(Primitive {
                    shape: Shape::Sphere { center: c(0.5, 0.68, 0.5), radius: 0.06 },
                    albedo: c(0.75, 0.75, 0.8),
                });
                prims.push(Primitive {
                    shape: Shape::Capsule {
                        a: c(0.5, 0.2, 0.5),
                        b: c(0.5, 0.62, 0.5),
                        radius: 0.015,
                    },
                    albedo: c(0.25, 0.25, 0.28),
                });
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.19, 0.5), half: c(0.07, 0.01, 0.07) },
                    albedo: c(0.2, 0.2, 0.22),
                });
            }
            SyntheticScene::Ficus => {
                // Thin trunk plus scattered leaf spheres.
                prims.push(Primitive {
                    shape: Shape::Capsule {
                        a: c(0.5, 0.18, 0.5),
                        b: c(0.5, 0.55, 0.5),
                        radius: 0.02,
                    },
                    albedo: c(0.45, 0.3, 0.15),
                });
                let leaves = [
                    (0.42, 0.62, 0.45),
                    (0.58, 0.66, 0.52),
                    (0.5, 0.72, 0.58),
                    (0.45, 0.7, 0.6),
                    (0.56, 0.6, 0.42),
                    (0.38, 0.58, 0.55),
                    (0.62, 0.7, 0.45),
                ];
                for &(x, y, z) in &leaves {
                    prims.push(Primitive {
                        shape: Shape::Sphere { center: c(x, y, z), radius: 0.045 },
                        albedo: c(0.15, 0.55, 0.2),
                    });
                }
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.15, 0.5), half: c(0.06, 0.03, 0.06) },
                    albedo: c(0.6, 0.35, 0.2),
                });
            }
            SyntheticScene::Drums => {
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.3, 0.5), half: c(0.09, 0.07, 0.09) },
                    albedo: c(0.7, 0.15, 0.15),
                });
                for (i, &(x, z)) in
                    [(0.35, 0.4), (0.65, 0.4), (0.38, 0.62), (0.62, 0.62)].iter().enumerate()
                {
                    prims.push(Primitive {
                        shape: Shape::Torus {
                            center: c(x, 0.42 + 0.02 * i as f32, z),
                            major: 0.05,
                            minor: 0.02,
                        },
                        albedo: c(0.8, 0.75, 0.6),
                    });
                }
                prims.push(Primitive {
                    shape: Shape::Sphere { center: c(0.5, 0.52, 0.42), radius: 0.05 },
                    albedo: c(0.85, 0.8, 0.3),
                });
            }
            SyntheticScene::Materials => {
                // A 3x3 grid of small spheres on a thin slab.
                for i in 0..3 {
                    for j in 0..3 {
                        let hue = (i * 3 + j) as f32 / 9.0;
                        prims.push(Primitive {
                            shape: Shape::Sphere {
                                center: c(0.3 + 0.2 * i as f32, 0.34, 0.3 + 0.2 * j as f32),
                                radius: 0.055,
                            },
                            albedo: c(0.3 + 0.7 * hue, 0.8 - 0.6 * hue, 0.4),
                        });
                    }
                }
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.26, 0.5), half: c(0.32, 0.015, 0.32) },
                    albedo: c(0.4, 0.4, 0.45),
                });
            }
            SyntheticScene::Lego => {
                // A studded brick assembly.
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.34, 0.5), half: c(0.18, 0.05, 0.12) },
                    albedo: c(0.9, 0.7, 0.1),
                });
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.42, 0.46, 0.5), half: c(0.1, 0.07, 0.1) },
                    albedo: c(0.85, 0.6, 0.1),
                });
                prims.push(Primitive {
                    shape: Shape::Capsule {
                        a: c(0.62, 0.4, 0.5),
                        b: c(0.72, 0.58, 0.5),
                        radius: 0.03,
                    },
                    albedo: c(0.5, 0.5, 0.5),
                });
                for k in 0..4 {
                    prims.push(Primitive {
                        shape: Shape::Sphere {
                            center: c(0.36 + 0.09 * k as f32, 0.41, 0.45),
                            radius: 0.02,
                        },
                        albedo: c(0.9, 0.7, 0.1),
                    });
                }
            }
            SyntheticScene::Hotdog => {
                for &z in &[0.46, 0.54] {
                    prims.push(Primitive {
                        shape: Shape::Capsule {
                            a: c(0.32, 0.35, z),
                            b: c(0.68, 0.35, z),
                            radius: 0.035,
                        },
                        albedo: c(0.75, 0.3, 0.12),
                    });
                }
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.29, 0.5), half: c(0.26, 0.02, 0.17) },
                    albedo: c(0.92, 0.88, 0.8),
                });
            }
            SyntheticScene::Chair => {
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.38, 0.5), half: c(0.13, 0.02, 0.13) },
                    albedo: c(0.6, 0.4, 0.25),
                });
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.52, 0.615), half: c(0.13, 0.13, 0.015) },
                    albedo: c(0.6, 0.4, 0.25),
                });
                for &(x, z) in &[(0.39, 0.39), (0.61, 0.39), (0.39, 0.61), (0.61, 0.61)] {
                    prims.push(Primitive {
                        shape: Shape::Capsule { a: c(x, 0.2, z), b: c(x, 0.37, z), radius: 0.015 },
                        albedo: c(0.45, 0.3, 0.2),
                    });
                }
            }
            SyntheticScene::Ship => {
                // Densest: wide hull, deck, masts, and superstructure.
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.32, 0.5), half: c(0.3, 0.08, 0.16) },
                    albedo: c(0.35, 0.22, 0.12),
                });
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.42, 0.5), half: c(0.26, 0.025, 0.13) },
                    albedo: c(0.5, 0.34, 0.18),
                });
                for &x in &[0.35, 0.5, 0.65] {
                    prims.push(Primitive {
                        shape: Shape::Capsule {
                            a: c(x, 0.44, 0.5),
                            b: c(x, 0.74, 0.5),
                            radius: 0.015,
                        },
                        albedo: c(0.3, 0.2, 0.12),
                    });
                    prims.push(Primitive {
                        shape: Shape::Box { center: c(x, 0.62, 0.5), half: c(0.07, 0.045, 0.008) },
                        albedo: c(0.9, 0.9, 0.85),
                    });
                }
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.6, 0.48, 0.5), half: c(0.07, 0.04, 0.07) },
                    albedo: c(0.55, 0.4, 0.25),
                });
                // Surrounding "sea" slab makes the scene dense.
                prims.push(Primitive {
                    shape: Shape::Box { center: c(0.5, 0.2, 0.5), half: c(0.42, 0.035, 0.42) },
                    albedo: c(0.1, 0.25, 0.4),
                });
            }
        }
        ProceduralScene { name: scene.name().to_string(), primitives: prims, background: Vec3::ONE }
    }

    /// Builds the procedural stand-in for a NeRF-360 large scene.
    ///
    /// Large scenes include a ground slab and peripheral structure, so
    /// their occupancy is substantially higher than the object scenes.
    pub fn large(scene: LargeScene) -> Self {
        let mut s = match scene {
            LargeScene::Bicycle => ProceduralScene::synthetic(SyntheticScene::Ficus),
            LargeScene::Bonsai => ProceduralScene::synthetic(SyntheticScene::Materials),
            LargeScene::Counter => ProceduralScene::synthetic(SyntheticScene::Lego),
            LargeScene::Garden => ProceduralScene::synthetic(SyntheticScene::Ship),
            LargeScene::Kitchen => ProceduralScene::synthetic(SyntheticScene::Hotdog),
            LargeScene::Room => ProceduralScene::synthetic(SyntheticScene::Chair),
            LargeScene::Stump => ProceduralScene::synthetic(SyntheticScene::Drums),
        };
        s.name = scene.name().to_string();
        // Ground plane: its footprint varies with the scene — bicycle
        // and stump are sparse foregrounds over patchy ground, while
        // garden and the indoor scenes have dense full-extent floors.
        let ground_half = match scene {
            LargeScene::Bicycle => 0.20,
            LargeScene::Stump => 0.26,
            LargeScene::Bonsai => 0.30,
            LargeScene::Counter => 0.36,
            LargeScene::Kitchen => 0.42,
            LargeScene::Room => 0.45,
            LargeScene::Garden => 0.48,
        };
        s.primitives.push(Primitive {
            shape: Shape::Box {
                center: Vec3::new(0.5, 0.1, 0.5),
                half: Vec3::new(ground_half, 0.04, ground_half),
            },
            albedo: Vec3::new(0.35, 0.42, 0.25),
        });
        // Peripheral structure (walls / vegetation) raising occupancy.
        let extra: &[(f32, f32, f32, f32)] = match scene {
            LargeScene::Garden => &[
                (0.12, 0.3, 0.15, 0.12),
                (0.88, 0.3, 0.2, 0.13),
                (0.15, 0.32, 0.85, 0.14),
                (0.85, 0.28, 0.85, 0.12),
                (0.5, 0.3, 0.12, 0.1),
            ],
            LargeScene::Room | LargeScene::Kitchen => {
                &[(0.08, 0.4, 0.5, 0.1), (0.92, 0.4, 0.5, 0.1)]
            }
            LargeScene::Counter => &[(0.15, 0.35, 0.2, 0.09), (0.8, 0.3, 0.8, 0.08)],
            LargeScene::Bicycle => &[],
            _ => &[(0.2, 0.28, 0.8, 0.06)],
        };
        for &(x, y, z, r) in extra {
            s.primitives.push(Primitive {
                shape: Shape::Sphere { center: Vec3::new(x, y, z), radius: r },
                albedo: Vec3::new(0.3, 0.5, 0.3),
            });
        }
        s.background = Vec3::new(0.55, 0.7, 0.9);
        s
    }

    /// The scene name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scene's background color.
    pub fn background(&self) -> Vec3 {
        self.background
    }

    /// Number of SDF primitives.
    pub fn primitive_count(&self) -> usize {
        self.primitives.len()
    }

    /// Signed distance to the nearest surface and that primitive's
    /// albedo.
    pub fn sdf(&self, p: Vec3) -> (f32, Vec3) {
        let mut best = (f32::INFINITY, Vec3::ONE);
        for prim in &self.primitives {
            let d = prim.shape.sdf(p);
            if d < best.0 {
                best = (d, prim.albedo);
            }
        }
        best
    }

    /// Whether `p` lies within `margin` of any surface (interior
    /// counts) — the ground-truth occupancy oracle.
    pub fn occupied(&self, p: Vec3, margin: f32) -> bool {
        self.sdf(p).0 < margin
    }

    /// Outward surface normal by central differences.
    pub fn normal(&self, p: Vec3) -> Vec3 {
        let h = 1e-3;
        let d = |q: Vec3| self.sdf(q).0;
        Vec3::new(
            d(p + Vec3::X * h) - d(p - Vec3::X * h),
            d(p + Vec3::Y * h) - d(p - Vec3::Y * h),
            d(p + Vec3::Z * h) - d(p - Vec3::Z * h),
        )
        .try_normalize()
        .unwrap_or(Vec3::Y)
    }

    /// Sphere-traces a ray; returns the hit parameter and shaded color,
    /// or `None` when the ray escapes the model cube.
    pub fn trace(&self, ray: &Ray) -> Option<(f32, Vec3)> {
        let span = Aabb::unit_cube().intersect_general(ray)?;
        let mut t = span.t_near.max(0.0) + 1e-4;
        for _ in 0..192 {
            if t > span.t_far {
                return None;
            }
            let p = ray.at(t);
            let (d, albedo) = self.sdf(p);
            if d < 1e-3 {
                let n = self.normal(p);
                let l = -ray.direction;
                let diffuse = 0.35 + 0.65 * n.dot(l).max(0.0);
                return Some((t, (albedo * diffuse).clamp(0.0, 1.0)));
            }
            t += d.max(2e-3);
        }
        None
    }

    /// Renders the ground-truth image seen by `camera`.
    pub fn render(&self, camera: &Camera) -> Image {
        let mut img = Image::new(camera.width(), camera.height());
        for (x, y, ray) in camera.rays() {
            let color = self.trace(&ray).map_or(self.background, |(_, c)| c);
            img.set(x, y, color);
        }
        img
    }

    /// Builds the ground-truth occupancy grid for this scene.
    pub fn occupancy_grid(&self, resolution: u32) -> OccupancyGrid {
        debug_assert!(resolution > 0, "occupancy grid needs at least one cell");
        let margin = 1.5 / resolution as f32;
        OccupancyGrid::from_oracle(resolution, 0.0, |p| self.occupied(p, margin))
    }

    /// Fraction of the model cube within `margin` of geometry, via a
    /// deterministic lattice probe at the given resolution.
    pub fn occupancy_ratio(&self, resolution: u32, margin: f32) -> f64 {
        let mut hits = 0u64;
        let n = resolution as usize;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let p = Vec3::new(
                        (x as f32 + 0.5) / n as f32,
                        (y as f32 + 0.5) / n as f32,
                        (z as f32 + 0.5) / n as f32,
                    );
                    if self.occupied(p, margin) {
                        hits += 1;
                    }
                }
            }
        }
        hits as f64 / (n * n * n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{orbit_poses, Camera};

    #[test]
    fn all_synthetic_scenes_have_geometry() {
        for kind in SyntheticScene::ALL {
            let scene = ProceduralScene::synthetic(kind);
            assert!(scene.primitive_count() > 0, "{} empty", scene.name());
            let ratio = scene.occupancy_ratio(16, 0.05);
            assert!(ratio > 0.0 && ratio < 0.6, "{}: occupancy {ratio} out of range", scene.name());
        }
    }

    #[test]
    fn mic_is_sparser_than_ship() {
        // The paper's T1 ablation (Tab. VI) shows mic with the largest
        // speedup (20.2x) and ship with the smallest (5.4x); the
        // corresponding scene statistic is sparsity.
        let mic = ProceduralScene::synthetic(SyntheticScene::Mic).occupancy_ratio(16, 0.03);
        let ship = ProceduralScene::synthetic(SyntheticScene::Ship).occupancy_ratio(16, 0.03);
        assert!(mic * 2.0 < ship, "mic ({mic}) should be far sparser than ship ({ship})");
    }

    #[test]
    fn large_scenes_are_denser_than_their_object_counterparts() {
        let room = ProceduralScene::large(LargeScene::Room).occupancy_ratio(12, 0.03);
        let chair = ProceduralScene::synthetic(SyntheticScene::Chair).occupancy_ratio(12, 0.03);
        assert!(room > chair, "room {room} vs chair {chair}");
    }

    #[test]
    fn sdf_sign_convention() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Mic);
        // Center of the mic head is inside.
        let (inside, _) = scene.sdf(Vec3::new(0.5, 0.68, 0.5));
        assert!(inside < 0.0);
        // A corner of the cube is far outside.
        let (outside, _) = scene.sdf(Vec3::new(0.02, 0.95, 0.02));
        assert!(outside > 0.1);
    }

    #[test]
    fn trace_hits_geometry_and_misses_sky() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Chair);
        // Aim at the seat center.
        let hit = scene.trace(&Ray::new(
            Vec3::new(0.5, 0.45, -1.0),
            (Vec3::new(0.5, 0.4, 0.5) - Vec3::new(0.5, 0.45, -1.0)).normalize(),
        ));
        assert!(hit.is_some());
        let (t, color) = hit.unwrap();
        assert!(t > 0.0);
        assert!(color.is_finite());
        // Aim above everything.
        let miss = scene.trace(&Ray::new(Vec3::new(0.5, 0.95, -1.0), Vec3::Z));
        assert!(miss.is_none());
    }

    #[test]
    fn normals_point_outward() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Mic);
        // Just above the mic head sphere, normal should point up-ish.
        let surface = Vec3::new(0.5, 0.68 + 0.06, 0.5);
        let n = scene.normal(surface);
        assert!(n.y > 0.8, "normal {n:?}");
    }

    #[test]
    fn render_produces_foreground_and_background() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Hotdog);
        let pose = orbit_poses(Vec3::new(0.5, 0.35, 0.5), 1.1, 4)[0];
        let cam = Camera::new(pose, 32, 32, 0.8);
        let img = scene.render(&cam);
        let bg = scene.background();
        let fg_pixels = img.pixels().iter().filter(|&&p| p != bg).count();
        assert!(fg_pixels > 10, "some pixels hit geometry: {fg_pixels}");
        assert!(fg_pixels < img.pixel_count(), "some pixels see the background");
    }

    #[test]
    fn occupancy_grid_covers_geometry() {
        let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
        let grid = scene.occupancy_grid(16);
        // The brick center is occupied.
        assert!(grid.is_occupied(Vec3::new(0.5, 0.34, 0.5)));
        // Empty upper corner is not.
        assert!(!grid.is_occupied(Vec3::new(0.05, 0.92, 0.05)));
        let r = grid.occupancy_ratio();
        assert!(r > 0.005 && r < 0.5, "ratio {r}");
    }

    #[test]
    fn scene_names_match_paper_tables() {
        assert_eq!(SyntheticScene::ALL.len(), 8);
        assert_eq!(LargeScene::ALL.len(), 7);
        assert_eq!(SyntheticScene::Ship.name(), "ship");
        assert_eq!(LargeScene::Garden.name(), "garden");
        let names: Vec<&str> = LargeScene::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["bicycle", "bonsai", "counter", "garden", "kitchen", "room", "stump"]
        );
    }
}
