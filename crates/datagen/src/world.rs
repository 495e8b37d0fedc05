//! The synthetic ground-truth world.
//!
//! One seeded generation pass produces every entity and every true fact;
//! the KB generators then *sample* this world (introducing the KB
//! incompleteness KATARA has to cope with), the table generators *project*
//! it (producing clean tables to corrupt), and the crowd oracles *answer*
//! from it (the expert crowd knows the real world, not the KB).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::names::NameGen;

/// World sizing knobs. Defaults are laptop-scale but non-trivial.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of countries (each gets a capital).
    pub countries: usize,
    /// Cities per country; the first is the capital.
    pub cities_per_country: usize,
    /// Number of soccer players.
    pub players: usize,
    /// Number of soccer clubs.
    pub clubs: usize,
    /// Number of leagues.
    pub leagues: usize,
    /// Number of US-style states (each gets a capital).
    pub states: usize,
    /// Cities per state; the first is the state capital.
    pub cities_per_state: usize,
    /// Number of universities.
    pub universities: usize,
    /// Number of languages.
    pub languages: usize,
    /// Number of continents.
    pub continents: usize,
    /// Fraction of clubs named after their home city (homonym ambiguity).
    pub club_city_homonym_rate: f64,
    /// Fraction of players that are "stars" — the famous entities Web
    /// tables actually list. The first `star_fraction · players` players
    /// are stars; table generators sample them preferentially and the
    /// Yago-like KB gives them an extra fine-grained type.
    pub star_fraction: f64,
    /// Generic persons that appear in no table (they make the `person`
    /// class genuinely larger than `soccer_player`, as in real KBs).
    pub extra_persons: usize,
    /// Generic places appearing in no table.
    pub extra_places: usize,
    /// Generic organizations appearing in no table.
    pub extra_orgs: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            countries: 50,
            cities_per_country: 6,
            players: 2000,
            clubs: 80,
            leagues: 10,
            states: 50,
            cities_per_state: 5,
            universities: 1500,
            languages: 40,
            continents: 6,
            club_city_homonym_rate: 0.3,
            star_fraction: 0.25,
            extra_persons: 1200,
            extra_places: 1500,
            extra_orgs: 400,
            seed: 0x5EED,
        }
    }
}

impl WorldConfig {
    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        WorldConfig {
            countries: 10,
            cities_per_country: 3,
            players: 60,
            clubs: 12,
            leagues: 3,
            states: 8,
            cities_per_state: 3,
            universities: 30,
            languages: 8,
            continents: 3,
            club_city_homonym_rate: 0.3,
            star_fraction: 0.25,
            extra_persons: 40,
            extra_places: 50,
            extra_orgs: 15,
            seed: 0x5EED,
        }
    }

    /// The Yago-scale configuration for the full-mode `resolve` bench:
    /// a few hundred thousand entities which, combined with
    /// [`KbGenConfig::yago_scale`](crate::KbGenConfig::yago_scale)'s
    /// 120K noise classes and per-entity noise typing, yields a KB of
    /// over a million triples — the scale regime the paper's Yago
    /// numbers (2.9M entities, 374K types) live in, shrunk only as far
    /// as a bench iteration budget demands.
    pub fn yago_scale() -> Self {
        WorldConfig {
            countries: 200,
            cities_per_country: 10,
            players: 160_000,
            clubs: 400,
            leagues: 20,
            states: 60,
            cities_per_state: 8,
            universities: 40_000,
            languages: 80,
            continents: 6,
            club_city_homonym_rate: 0.3,
            star_fraction: 0.25,
            extra_persons: 40_000,
            extra_places: 50_000,
            extra_orgs: 10_000,
            seed: 0x5EED,
        }
    }
}

/// A country: name, capital (city index), language, continent.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct Country {
    pub name: String,
    pub capital: usize,
    pub language: usize,
    pub continent: usize,
}

/// A city: name, country index, capital flag.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct City {
    pub name: String,
    pub country: usize,
    pub is_capital: bool,
}

/// A soccer club: display name, unique id-name, home city, league,
/// stadium name, short code.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct Club {
    pub name: String,
    /// Canonical unique name (differs from `name` for homonym clubs).
    pub id_name: String,
    pub city: usize,
    pub league: usize,
    pub stadium: String,
    /// A unique 3-letter-ish code (the Soccer table's `D` column).
    pub code: String,
}

/// A soccer player: name, nationality, birthplace, club, height literal.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct Player {
    pub name: String,
    pub country: usize,
    pub birth_city: usize,
    pub club: usize,
    pub height: String,
}

/// A US-style state: name and capital (us_city index).
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct State {
    pub name: String,
    pub capital: usize,
}

/// A city inside a state.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct UsCity {
    pub name: String,
    pub state: usize,
    pub is_capital: bool,
}

/// A university: name and host city (us_city index).
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct University {
    pub name: String,
    pub city: usize,
}

/// The generated world.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // record fields named in the struct doc
pub struct World {
    pub config: WorldConfig,
    pub continents: Vec<String>,
    pub languages: Vec<String>,
    pub countries: Vec<Country>,
    pub cities: Vec<City>,
    pub leagues: Vec<String>,
    pub clubs: Vec<Club>,
    pub players: Vec<Player>,
    pub states: Vec<State>,
    pub us_cities: Vec<UsCity>,
    pub universities: Vec<University>,
    /// Generic persons (KB filler; never appear in tables).
    pub extra_persons: Vec<String>,
    /// Generic places (KB filler).
    pub extra_places: Vec<String>,
    /// Generic organizations (KB filler).
    pub extra_orgs: Vec<String>,
}

impl World {
    /// Generate a world from a configuration (deterministic in the seed).
    pub fn generate(config: WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut names = NameGen::new();

        let continents: Vec<String> = (0..config.continents)
            .map(|_| names.unique(&mut rng, 3, &[]))
            .collect();
        let languages: Vec<String> = (0..config.languages)
            .map(|_| names.unique(&mut rng, 2, &["ish", "ese", "ian", "ic"]))
            .collect();

        let mut countries = Vec::with_capacity(config.countries);
        let mut cities = Vec::new();
        for ci in 0..config.countries {
            let cname = names.unique(&mut rng, 2, &["ia", "land", "stan", "a"]);
            let capital_idx = cities.len();
            for k in 0..config.cities_per_country.max(1) {
                cities.push(City {
                    name: names.unique(&mut rng, 3, &[]),
                    country: ci,
                    is_capital: k == 0,
                });
            }
            countries.push(Country {
                name: cname,
                capital: capital_idx,
                language: rng.random_range(0..languages.len().max(1)),
                continent: rng.random_range(0..continents.len().max(1)),
            });
        }

        let leagues: Vec<String> = (0..config.leagues.max(1))
            .map(|_| format!("{} League", names.unique(&mut rng, 2, &[])))
            .collect();

        let mut clubs = Vec::with_capacity(config.clubs);
        for _ in 0..config.clubs {
            let city = rng.random_range(0..cities.len());
            let homonym = rng.random_bool(config.club_city_homonym_rate);
            let (name, id_name) = if homonym {
                let n = cities[city].name.clone();
                let id = format!("{n} (club)");
                (n, id)
            } else {
                let n = format!("{} FC", names.unique(&mut rng, 2, &[]));
                (n.clone(), n)
            };
            let stadium = format!("{} Arena", names.unique(&mut rng, 2, &[]));
            let code = format!(
                "{}{}",
                name.chars()
                    .filter(|c| c.is_alphabetic())
                    .take(3)
                    .collect::<String>()
                    .to_uppercase(),
                clubs.len()
            );
            clubs.push(Club {
                name,
                id_name,
                city,
                league: rng.random_range(0..leagues.len()),
                stadium,
                code,
            });
        }

        let mut players = Vec::with_capacity(config.players);
        for _ in 0..config.players {
            let country = rng.random_range(0..countries.len());
            // Birthplace: a city of the home country.
            let base = countries[country].capital;
            let birth_city = base + rng.random_range(0..config.cities_per_country.max(1));
            let club = rng.random_range(0..clubs.len().max(1));
            let height = format!("1.{:02}", 60 + rng.random_range(0..40u32));
            players.push(Player {
                name: names.unique(&mut rng, 3, &[]),
                country,
                birth_city,
                club,
                height,
            });
        }

        let mut states = Vec::with_capacity(config.states);
        let mut us_cities = Vec::new();
        for si in 0..config.states {
            let sname = names.unique(&mut rng, 2, &[" State", "ota", "ana", "ico"]);
            let capital_idx = us_cities.len();
            for k in 0..config.cities_per_state.max(1) {
                us_cities.push(UsCity {
                    name: names.unique(&mut rng, 3, &[]),
                    state: si,
                    is_capital: k == 0,
                });
            }
            states.push(State {
                name: sname,
                capital: capital_idx,
            });
        }

        let universities: Vec<University> = (0..config.universities)
            .map(|_| {
                let city = rng.random_range(0..us_cities.len().max(1));
                University {
                    name: format!("University of {}", names.unique(&mut rng, 3, &[])),
                    city,
                }
            })
            .collect();

        let extra_persons: Vec<String> = (0..config.extra_persons)
            .map(|_| names.unique(&mut rng, 3, &[]))
            .collect();
        let extra_places: Vec<String> = (0..config.extra_places)
            .map(|_| names.unique(&mut rng, 3, &[]))
            .collect();
        let extra_orgs: Vec<String> = (0..config.extra_orgs)
            .map(|_| format!("{} Corp", names.unique(&mut rng, 2, &[])))
            .collect();

        World {
            config,
            continents,
            languages,
            countries,
            cities,
            leagues,
            clubs,
            players,
            states,
            us_cities,
            universities,
            extra_persons,
            extra_places,
            extra_orgs,
        }
    }

    /// Number of star players (the first `num_stars()` player indexes).
    pub fn num_stars(&self) -> usize {
        ((self.players.len() as f64 * self.config.star_fraction) as usize)
            .clamp(1, self.players.len())
    }

    /// True if player `i` is a star.
    pub fn is_star(&self, i: usize) -> bool {
        i < self.num_stars()
    }

    /// The capital city record of a country.
    pub fn capital_of(&self, country: usize) -> &City {
        &self.cities[self.countries[country].capital]
    }

    /// The language name of a country.
    pub fn language_of(&self, country: usize) -> &str {
        &self.languages[self.countries[country].language]
    }

    /// The capital city record of a state.
    pub fn state_capital_of(&self, state: usize) -> &UsCity {
        &self.us_cities[self.states[state].capital]
    }

    /// Total entity count across all categories.
    pub fn num_entities(&self) -> usize {
        self.continents.len()
            + self.languages.len()
            + self.countries.len()
            + self.cities.len()
            + self.leagues.len()
            + self.clubs.len()
            + self.players.len()
            + self.states.len()
            + self.us_cities.len()
            + self.universities.len()
            + self.extra_persons.len()
            + self.extra_places.len()
            + self.extra_orgs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let w1 = World::generate(WorldConfig::tiny());
        let w2 = World::generate(WorldConfig::tiny());
        assert_eq!(w1.countries.len(), w2.countries.len());
        assert_eq!(w1.players[0].name, w2.players[0].name);
        assert_eq!(w1.clubs[3].code, w2.clubs[3].code);
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = World::generate(WorldConfig::tiny());
        let w2 = World::generate(WorldConfig {
            seed: 999,
            ..WorldConfig::tiny()
        });
        assert_ne!(w1.players[0].name, w2.players[0].name);
    }

    #[test]
    fn structure_is_consistent() {
        let w = World::generate(WorldConfig::tiny());
        assert_eq!(w.countries.len(), 10);
        assert_eq!(w.cities.len(), 30);
        for (ci, c) in w.countries.iter().enumerate() {
            let cap = &w.cities[c.capital];
            assert_eq!(cap.country, ci);
            assert!(cap.is_capital);
        }
        for p in &w.players {
            assert!(p.country < w.countries.len());
            assert_eq!(w.cities[p.birth_city].country, p.country);
            assert!(p.club < w.clubs.len());
            assert!(p.height.starts_with("1."));
        }
        for (si, s) in w.states.iter().enumerate() {
            assert_eq!(w.us_cities[s.capital].state, si);
            assert!(w.us_cities[s.capital].is_capital);
        }
        for u in &w.universities {
            assert!(u.city < w.us_cities.len());
        }
    }

    #[test]
    fn homonym_clubs_exist() {
        let w = World::generate(WorldConfig::default());
        let homonyms = w.clubs.iter().filter(|c| c.name != c.id_name).count();
        assert!(homonyms > 0, "some clubs must share their city's name");
        for c in &w.clubs {
            if c.name != c.id_name {
                assert_eq!(c.name, w.cities[c.city].name);
            }
        }
    }

    #[test]
    fn codes_are_unique() {
        let w = World::generate(WorldConfig::default());
        let mut codes: Vec<&str> = w.clubs.iter().map(|c| c.code.as_str()).collect();
        let n = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), n);
    }

    #[test]
    fn entity_count_adds_up() {
        let w = World::generate(WorldConfig::tiny());
        assert_eq!(
            w.num_entities(),
            3 + 8 + 10 + 30 + 3 + 12 + 60 + 8 + 24 + 30 + 40 + 50 + 15
        );
    }
}
